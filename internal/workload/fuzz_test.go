package workload

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseWorkloadSpec throws arbitrary text at the spec parser. Parse
// must never panic; any spec it accepts must satisfy the compiled
// invariants (positive duration, phases with both directives, normalized
// class weights) and must instantiate a stream whose first records obey
// the horizon. The bundled specs/ library seeds the corpus.
func FuzzParseWorkloadSpec(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	for _, path := range seeds {
		if text, err := os.ReadFile(path); err == nil {
			f.Add(string(text))
		}
	}
	f.Add(goodSpec)
	f.Add("scenario x\nphase p 1\narrivals poisson rate=1\nholding exp mean=1\n")
	f.Add("scenario x\nprefill 2\nwarmup 0.5\nclass a weight=1 tier=1\nphase p 3\narrivals mmpp rate=4 burst=3 sojourn=1\nholding pareto mean=1 shape=2\nevent flash at=1 mult=2 width=1\n")
	f.Add("scenario x\nphase p 2\narrivals gamma rate=2 cv=0.5\nholding lognormal mean=1 sigma=0.5\nevent sine period=1 depth=0.9\n")
	f.Add("scenario x\nprefill 3\nphase p 4\narrivals session rate=6 scale=1.5 shape=1.2\nholding exp mean=1\n")

	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		if !(s.Duration() > 0) {
			t.Fatalf("accepted spec has non-positive duration %g", s.Duration())
		}
		if s.Warmup >= s.Duration() {
			t.Fatalf("accepted spec has warmup %g ≥ duration %g", s.Warmup, s.Duration())
		}
		sum := 0.0
		for _, c := range s.Classes {
			if !(c.Weight > 0) || !(c.Demand > 0) || c.Tier > MaxTier {
				t.Fatalf("accepted spec has invalid class %+v", c)
			}
			sum += c.Weight
		}
		if len(s.Classes) > 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("class weights not normalized: %g", sum)
		}
		for i := range s.Phases {
			p := &s.Phases[i]
			if p.Arrivals.Kind == "" || p.Holding.Kind == "" {
				t.Fatalf("accepted spec has incomplete phase %+v", p)
			}
			if !(p.Duration > 0) {
				t.Fatalf("accepted spec has non-positive phase duration %+v", p)
			}
		}
		// The stream must start cleanly and respect the horizon. Cap the
		// pull count: arbitrary accepted specs can describe billions of
		// arrivals.
		st := s.Stream(1, 2)
		for i := 0; i < 64; i++ {
			rec, ok := st.Next()
			if !ok {
				break
			}
			if rec.At < 0 || rec.At > s.Duration() {
				t.Fatalf("record %d outside horizon: %+v", i, rec)
			}
			if rec.Phase < 0 || rec.Phase >= len(s.Phases) {
				t.Fatalf("record %d has bad phase: %+v", i, rec)
			}
		}
	})
}
