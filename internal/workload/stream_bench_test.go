package workload

import (
	"os"
	"testing"
)

// benchScenarios are the arrival shapes BenchmarkStreamNext times, as a
// spec's text or, with an empty spec, the file at path: the plain
// Poisson/exponential phase of the baseline and load-harness runs; the
// sim workload's own scenario (lognormal holds, then a Pareto tail), whose
// holding draws dominate; and one phase with every rate modulation at
// once (MMPP states, a flash crowd and a sine swing), which exercises the
// segment and thinning logic.
var benchScenarios = []struct{ name, path, spec string }{
	{"poisson-exp", "", `scenario bench-poisson
phase steady 100000
arrivals poisson rate=100
holding exp mean=1
`},
	{"lognormal-pareto", "../../perfbench/heavytail.spec", ""},
	{"mmpp-flash-sine", "", `scenario bench-modulated
phase churn 100000
arrivals mmpp rate=50 burst=6 sojourn=4
holding exp mean=1
event flash at=10 mult=4 width=20
event sine period=40 depth=0.6
`},
}

func parseBenchScenario(tb testing.TB, path, spec string) *Scenario {
	tb.Helper()
	if path != "" {
		text, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		spec = string(text)
	}
	s, err := Parse(spec)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return s
}

// TestStreamNextZeroAlloc: drawing a record allocates nothing, whatever
// the arrival process, event mix or holding law.
func TestStreamNextZeroAlloc(t *testing.T) {
	for _, bs := range benchScenarios {
		st := parseBenchScenario(t, bs.path, bs.spec).Stream(1, 2)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := st.Next(); !ok {
				t.Fatalf("%s: stream ended", bs.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per record, want 0", bs.name, allocs)
		}
	}
}

// BenchmarkStreamNext is the arrival stream's layer benchmark: one op is
// one record. A finite scenario restarts, off the clock, when it ends.
func BenchmarkStreamNext(b *testing.B) {
	for _, bs := range benchScenarios {
		b.Run(bs.name, func(b *testing.B) {
			s := parseBenchScenario(b, bs.path, bs.spec)
			st := s.Stream(1, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Next(); !ok {
					b.StopTimer()
					st = s.Stream(1, 2)
					b.StartTimer()
				}
			}
		})
	}
}
