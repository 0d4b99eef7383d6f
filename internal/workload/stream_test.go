package workload

import (
	"math"
	"strings"
	"testing"

	"beqos/internal/numeric"
	"beqos/internal/rng"
)

// trace pulls every record from a fresh stream and renders the golden
// format.
func trace(t *testing.T, spec string, seed1, seed2 uint64) (string, []Flow) {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	st := s.Stream(seed1, seed2)
	var b strings.Builder
	var flows []Flow
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
		flows = append(flows, f)
	}
	return b.String(), flows
}

func TestStreamDeterministic(t *testing.T) {
	a, _ := trace(t, goodSpec, 7, 11)
	b, _ := trace(t, goodSpec, 7, 11)
	if a != b {
		t.Fatal("same spec + seed produced different traces")
	}
	c, _ := trace(t, goodSpec, 8, 11)
	if a == c {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestStreamInvariants(t *testing.T) {
	s, err := Parse(goodSpec)
	if err != nil {
		t.Fatal(err)
	}
	_, flows := trace(t, goodSpec, 3, 9)
	if len(flows) < s.Prefill {
		t.Fatalf("only %d records", len(flows))
	}
	for i, f := range flows {
		if i < s.Prefill {
			if f.At != 0 || f.Phase != 0 {
				t.Fatalf("prefill record %d not at t=0 phase 0: %+v", i, f)
			}
		}
		if i > 0 && f.At < flows[i-1].At {
			t.Fatalf("records out of order at %d: %g < %g", i, f.At, flows[i-1].At)
		}
		if f.At > s.Duration() {
			t.Fatalf("record %d past horizon: %g > %g", i, f.At, s.Duration())
		}
		if !(f.Hold > 0) {
			t.Fatalf("record %d non-positive hold %g", i, f.Hold)
		}
		if f.Class < 0 || f.Class >= len(s.Classes) {
			t.Fatalf("record %d class %d out of range", i, f.Class)
		}
		if f.Phase < 0 || f.Phase >= len(s.Phases) || f.At < s.Phases[f.Phase].Start || f.At > s.Phases[f.Phase].Start+s.Phases[f.Phase].Duration {
			t.Fatalf("record %d at t=%g lies outside its tagged phase %d", i, f.At, f.Phase)
		}
	}
	// Exhausted streams stay exhausted.
	st := s.Stream(3, 9)
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream produced a record after exhaustion")
	}
}

// TestStreamMatchesHardwiredDraws is the bit-for-bit contract: a plain
// Poisson/exp spec must consume the primary source in exactly the order
// the hardwired loadgen pump does — prefill holds first, then
// wait, hold, wait, hold, … — so the baseline spec reproduces the
// legacy harness statistics exactly.
func TestStreamMatchesHardwiredDraws(t *testing.T) {
	const spec = `scenario plain
prefill 5
phase only 12
arrivals poisson rate=3
holding exp mean=0.5
`
	_, flows := trace(t, spec, 42, 43)

	src := rng.New(42, 43)
	var want []Flow
	for i := 0; i < 5; i++ {
		want = append(want, Flow{At: 0, Hold: src.Exp(0.5)})
	}
	now := 0.0
	for {
		now += src.Exp(1.0 / 3)
		if now > 12 {
			break
		}
		want = append(want, Flow{At: now, Hold: src.Exp(0.5)})
	}
	if len(flows) != len(want) {
		t.Fatalf("stream emitted %d records, hardwired pump %d", len(flows), len(want))
	}
	for i := range want {
		if flows[i] != want[i] {
			t.Fatalf("record %d: stream %+v, hardwired %+v", i, flows[i], want[i])
		}
	}
}

// countIn counts arrivals (non-prefill records) in [lo, hi).
func countIn(flows []Flow, lo, hi float64) int {
	n := 0
	for _, f := range flows {
		if f.At > 0 && f.At >= lo && f.At < hi {
			n++
		}
	}
	return n
}

func TestStreamRates(t *testing.T) {
	// Long single-phase runs: empirical arrival rates must match the
	// declared means for every process, and event windows must scale them.
	const T = 2000.0
	cases := []struct {
		name, body string
		lo, hi     float64
		wantRate   float64
	}{
		{"poisson", "arrivals poisson rate=5\nholding exp mean=1\n", 0, T, 5},
		{"mmpp mean", "arrivals mmpp rate=5 burst=6 sojourn=3\nholding exp mean=1\n", 0, T, 5},
		{"gamma mean", "arrivals gamma rate=5 cv=2.5\nholding exp mean=1\n", 0, T, 5},
		{"sine mean", "arrivals poisson rate=5\nholding exp mean=1\nevent sine period=40 depth=0.8\n", 0, T, 5},
		{"flash window", "arrivals poisson rate=2\nholding exp mean=1\nevent flash at=500 mult=8 width=1000\n", 500, 1500, 16},
		{"step after", "arrivals poisson rate=2\nholding exp mean=1\nevent step at=1000 mult=3\n", 1000, 2000, 6},
	}
	for _, tc := range cases {
		spec := "scenario r\nphase p 2000\n" + tc.body
		_, flows := trace(t, spec, 17, 23)
		n := countIn(flows, tc.lo, tc.hi)
		mean := tc.wantRate * (tc.hi - tc.lo)
		// Poisson-ish counts: allow 5 standard deviations.
		if d := math.Abs(float64(n) - mean); d > 5*math.Sqrt(mean)+5 {
			t.Errorf("%s: %d arrivals in [%g,%g), want ≈ %g", tc.name, n, tc.lo, tc.hi, mean)
		}
	}
}

func TestStreamGammaCV(t *testing.T) {
	const spec = `scenario g
phase p 4000
arrivals gamma rate=5 cv=2
holding exp mean=1
`
	_, flows := trace(t, spec, 5, 6)
	var gaps []float64
	for i := 1; i < len(flows); i++ {
		gaps = append(gaps, flows[i].At-flows[i-1].At)
	}
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps)-1)) / mean
	if math.Abs(cv-2) > 0.3 {
		t.Fatalf("gamma inter-arrival CV = %g, want ≈ 2", cv)
	}
	if math.Abs(mean-0.2) > 0.02 {
		t.Fatalf("gamma mean inter-arrival = %g, want ≈ 0.2", mean)
	}
}

func TestStreamMMPPOverdispersed(t *testing.T) {
	// An MMPP with strong burstiness must show an index of dispersion of
	// counts well above the Poisson value 1 at window ≈ sojourn scale.
	gen := func(body string) []Flow {
		_, flows := trace(t, "scenario b\nphase p 4000\n"+body+"holding exp mean=1\n", 29, 31)
		return flows
	}
	idc := func(flows []Flow, win float64) float64 {
		var counts []float64
		for lo := 0.0; lo+win <= 4000; lo += win {
			counts = append(counts, float64(countIn(flows, lo, lo+win)))
		}
		var sum, sq float64
		for _, c := range counts {
			sum += c
		}
		m := sum / float64(len(counts))
		for _, c := range counts {
			sq += (c - m) * (c - m)
		}
		return sq / float64(len(counts)-1) / m
	}
	bursty := idc(gen("arrivals mmpp rate=5 burst=8 sojourn=4\n"), 4)
	plain := idc(gen("arrivals poisson rate=5\n"), 4)
	if bursty < 2 {
		t.Fatalf("MMPP index of dispersion %g, want ≫ 1", bursty)
	}
	if plain > 1.5 {
		t.Fatalf("Poisson index of dispersion %g, want ≈ 1", plain)
	}
}

func TestStreamHeavyTailMeans(t *testing.T) {
	// M/G/∞ insensitivity leans on E[hold]; the samplers must hit their
	// declared means.
	cases := []struct {
		name, holding string
	}{
		{"pareto", "holding pareto mean=2 shape=2.5"},
		{"lognormal", "holding lognormal mean=2 sigma=1"},
		{"exp", "holding exp mean=2"},
	}
	for _, tc := range cases {
		spec := "scenario h\nphase p 6000\narrivals poisson rate=5\n" + tc.holding + "\n"
		_, flows := trace(t, spec, 101, 103)
		var sum float64
		for _, f := range flows {
			sum += f.Hold
		}
		mean := sum / float64(len(flows))
		if math.Abs(mean-2) > 0.25 {
			t.Errorf("%s: empirical mean hold %g, want ≈ 2 (%d draws)", tc.name, mean, len(flows))
		}
	}
}

func TestStreamClassMixture(t *testing.T) {
	const spec = `scenario m
class a weight=1
class b weight=3
phase p 3000
arrivals poisson rate=5
holding exp mean=1
`
	_, flows := trace(t, spec, 71, 73)
	counts := map[int]int{}
	for _, f := range flows {
		counts[f.Class]++
	}
	total := float64(len(flows))
	if frac := float64(counts[1]) / total; math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("class b fraction %g, want ≈ 0.75", frac)
	}
	// Adding classes must not perturb the primary wait/hold sequence:
	// the classless variant's (At, Hold) pairs are identical.
	classless := "scenario m\nphase p 3000\narrivals poisson rate=5\nholding exp mean=1\n"
	_, plain := trace(t, classless, 71, 73)
	if len(plain) != len(flows) {
		t.Fatalf("class mixture changed the arrival count: %d vs %d", len(flows), len(plain))
	}
	for i := range plain {
		if plain[i].At != flows[i].At || plain[i].Hold != flows[i].Hold {
			t.Fatalf("class mixture perturbed record %d: %+v vs %+v", i, flows[i], plain[i])
		}
	}
}

// batchMoments sums a capped session batch's first two moments directly:
// E[B] = Σ P(B ≥ n) and E[B²] = Σ (2n−1)·P(B ≥ n) over n ≤ MaxPrefill.
func batchMoments(scale, shape float64) (m1, m2 float64) {
	for n := 1; n <= MaxPrefill; n++ {
		p := math.Min(1, math.Pow(scale/float64(n), shape))
		m1 += p
		m2 += float64(2*n-1) * p
	}
	return m1, m2
}

func TestSessionMeanBatch(t *testing.T) {
	for _, c := range []struct{ scale, shape float64 }{{1, 1.5}, {1, 2.5}, {2.7, 1.3}, {3, 4}} {
		a := ArrivalSpec{Kind: "session", Scale: c.scale, Shape: c.shape}
		want, _ := batchMoments(c.scale, c.shape)
		if got := a.MeanBatch(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("MeanBatch(%g, %g) = %.12g, direct sum %.12g", c.scale, c.shape, got, want)
		}
	}
	// Pareto(1, 1.5) batches average ζ(1.5) less the capped tail, not the
	// continuous Pareto mean 3.
	a := ArrivalSpec{Kind: "session", Scale: 1, Shape: 1.5}
	if want := numeric.RiemannZeta(1.5) - numeric.HurwitzZeta(1.5, MaxPrefill+1); math.Abs(a.MeanBatch()-want) > 1e-12 {
		t.Errorf("MeanBatch(1, 1.5) = %.12g, want %.12g", a.MeanBatch(), want)
	}
	if m := (ArrivalSpec{Kind: "poisson", Rate: 3}).MeanBatch(); m != 1 {
		t.Errorf("poisson MeanBatch = %g, want 1", m)
	}
}

// TestStreamSessionBatches: with finite-variance batches (shape 2.5) a
// session phase's flows per unit time land within 3σ of rate=, and the
// flows of each batch share one arrival instant.
func TestStreamSessionBatches(t *testing.T) {
	const T, rate = 4000.0, 5.0
	_, flows := trace(t, "scenario s\nphase p 4000\narrivals session rate=5 scale=1 shape=2.5\nholding exp mean=1\n", 5, 6)
	m1, m2 := batchMoments(1, 2.5)
	// N = Σ_{i ≤ S} B_i with S ~ Poisson(rate·T/E[B]): Var N = (rate·T/E[B])·E[B²].
	sessions := rate * T / m1
	if sigma := math.Sqrt(sessions * m2); math.Abs(float64(len(flows))-rate*T) > 3*sigma {
		t.Errorf("%d flows in [0, %g), want %g ± 3·%.1f", len(flows), T, rate*T, sigma)
	}
	// Distinct instants are distinct sessions: continuous waits never tie.
	instants := 0
	for i, f := range flows {
		if i == 0 || f.At != flows[i-1].At {
			instants++
		}
	}
	if sigma := math.Sqrt(sessions); math.Abs(float64(instants)-sessions) > 3*sigma {
		t.Errorf("%d arrival instants, want %.0f ± 3·%.1f sessions", instants, sessions, sigma)
	}
	if instants == len(flows) {
		t.Error("no two flows share an instant; batches are not landing together")
	}
}
