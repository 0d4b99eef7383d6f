package workload

import (
	"math"
	"strings"
	"testing"
)

const goodSpec = `
# A three-phase scenario exercising most of the grammar.
scenario demo
prefill 20
warmup 2
class gold weight=1 demand=2 tier=0
class bulk weight=3 tier=2

phase steady 10
arrivals poisson rate=20
holding exp mean=1

phase storm 8
arrivals mmpp rate=20 burst=4 sojourn=1.5
holding pareto mean=1 shape=1.5
event flash at=2 mult=3 width=2
event step at=6 mult=0.5

phase tail 6
arrivals gamma rate=10 cv=2
holding lognormal mean=2 sigma=1
`

func TestParseGoodSpec(t *testing.T) {
	s, err := Parse(goodSpec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "demo" || s.Prefill != 20 || s.Warmup != 2 {
		t.Fatalf("header mismatch: %+v", s)
	}
	if len(s.Phases) != 3 || len(s.Classes) != 2 {
		t.Fatalf("want 3 phases, 2 classes: %+v", s)
	}
	if got := s.Duration(); got != 24 {
		t.Fatalf("Duration = %g, want 24", got)
	}
	if w := s.Classes[0].Weight + s.Classes[1].Weight; math.Abs(w-1) > 1e-12 {
		t.Fatalf("class weights not normalized: sum %g", w)
	}
	if s.Classes[0].Weight != 0.25 || s.Classes[1].Tier != 2 || s.Classes[0].Demand != 2 {
		t.Fatalf("class fields wrong: %+v", s.Classes)
	}
	if s.Phases[1].Start != 10 || s.Phases[2].Start != 18 {
		t.Fatalf("phase starts wrong: %+v", s.Phases)
	}
	if s.Phases[1].Sine != nil || len(s.Phases[1].Events) != 2 {
		t.Fatalf("storm events wrong: %+v", s.Phases[1])
	}
	// Flash [2,4) and step at 6 → edges 2, 4, 6.
	if got := s.Phases[1].edges; len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("storm edges = %v, want [2 4 6]", got)
	}
	if s.PhaseAt(0) != 0 || s.PhaseAt(10) != 1 || s.PhaseAt(23.9) != 2 || s.PhaseAt(99) != 2 {
		t.Fatalf("PhaseAt wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"empty", "", "empty spec"},
		{"comment only", "# nothing\n", "empty spec"},
		{"no scenario first", "phase a 1\n", "must begin with a scenario"},
		{"duplicate scenario", "scenario a\nscenario b\n", "duplicate scenario"},
		{"scenario usage", "scenario\n", "usage: scenario"},
		{"no phases", "scenario a\n", "no phases"},
		{"prefill after phase", "scenario a\nphase p 1\nprefill 3\n", "precede the first phase"},
		{"prefill bad", "scenario a\nprefill -1\n", "prefill"},
		{"prefill huge", "scenario a\nprefill 99999999\n", "prefill"},
		{"warmup bad", "scenario a\nwarmup x\n", "warmup"},
		{"warmup too long", "scenario a\nwarmup 5\nphase p 4\narrivals poisson rate=1\nholding exp mean=1\n", "not shorter"},
		{"class no weight", "scenario a\nclass c demand=1\n", "needs weight"},
		{"class bad tier", "scenario a\nclass c weight=1 tier=7\n", "tier"},
		{"class frac tier", "scenario a\nclass c weight=1 tier=1.5\n", "tier"},
		{"class dup", "scenario a\nclass c weight=1\nclass c weight=2\n", "duplicate class"},
		{"class unknown key", "scenario a\nclass c weight=1 color=3\n", `unknown key "color"`},
		{"phase usage", "scenario a\nphase p\n", "usage: phase"},
		{"phase duration", "scenario a\nphase p 0\n", "duration"},
		{"phase nan", "scenario a\nphase p NaN\n", "duration"},
		{"phase dup", "scenario a\nphase p 1\nphase p 1\n", "duplicate phase"},
		{"arrivals orphan", "scenario a\narrivals poisson rate=1\n", "outside a phase"},
		{"arrivals dup", "scenario a\nphase p 1\narrivals poisson rate=1\narrivals poisson rate=2\n", "already has arrivals"},
		{"arrivals kind", "scenario a\nphase p 1\narrivals weibull rate=1\n", "unknown arrival process"},
		{"arrivals no rate", "scenario a\nphase p 1\narrivals poisson\n", "needs rate"},
		{"arrivals nan rate", "scenario a\nphase p 1\narrivals poisson rate=NaN\n", "needs rate"},
		{"mmpp no burst", "scenario a\nphase p 1\narrivals mmpp rate=1 sojourn=1\n", "burst"},
		{"mmpp low burst", "scenario a\nphase p 1\narrivals mmpp rate=1 burst=0.5 sojourn=1\n", "burst"},
		{"mmpp no sojourn", "scenario a\nphase p 1\narrivals mmpp rate=1 burst=2\n", "sojourn"},
		{"gamma no cv", "scenario a\nphase p 1\narrivals gamma rate=1\n", "cv"},
		{"holding missing", "scenario a\nphase p 1\narrivals poisson rate=1\n", "no holding"},
		{"arrivals missing", "scenario a\nphase p 1\nholding exp mean=1\n", "no arrivals"},
		{"holding kind", "scenario a\nphase p 1\nholding uniform mean=1\n", "unknown holding"},
		{"holding dup", "scenario a\nphase p 1\nholding exp mean=1\nholding exp mean=2\n", "already has holding"},
		{"pareto shape 1", "scenario a\nphase p 1\nholding pareto mean=1 shape=1\n", "unbounded mean"},
		{"lognormal sigma", "scenario a\nphase p 1\nholding lognormal mean=1 sigma=9\n", "sigma"},
		{"event orphan", "scenario a\nevent step at=0 mult=2\n", "outside a phase"},
		{"event kind", "scenario a\nphase p 1\nevent quake at=0 mult=2\n", "unknown event"},
		{"event late", "scenario a\nphase p 1\nevent step at=2 mult=2\n", "at="},
		{"flash wide", "scenario a\nphase p 2\nevent flash at=1 mult=2 width=1.5\n", "width"},
		{"sine depth", "scenario a\nphase p 1\nevent sine period=1 depth=1\n", "depth"},
		{"sine dup", "scenario a\nphase p 9\nevent sine period=1 depth=0.5\nevent sine period=2 depth=0.5\n", "already has a sine"},
		{"gamma with events", "scenario a\nphase p 9\narrivals gamma rate=1 cv=2\nholding exp mean=1\nevent step at=1 mult=2\n", "gamma renewal"},
		{"bad kv", "scenario a\nphase p 1\narrivals poisson rate\n", "not key=value"},
		{"dup kv", "scenario a\nphase p 1\narrivals poisson rate=1 rate=2\n", "duplicate key"},
		{"kv not number", "scenario a\nphase p 1\narrivals poisson rate=fast\n", "not a number"},
		{"unknown directive", "scenario a\nspeed 9\n", "unknown directive"},
		{"session shape 1", "scenario a\nphase p 1\narrivals session rate=1 scale=1 shape=1\n", "unbounded batch mean"},
		{"session scale", "scenario a\nphase p 1\narrivals session rate=1 scale=0.5 shape=1.5\n", "scale="},
		{"session with events", "scenario a\nphase p 9\narrivals session rate=1 scale=1 shape=1.5\nholding exp mean=1\nevent sine period=1 depth=0.5\n", "session batch"},
		// 2e8 flows exceed the cap although 2e8/ζ(1.5) ≈ 7.7e7 sessions would not.
		{"session flows cap", "scenario a\nphase p 200\narrivals session rate=1e6 scale=1 shape=1.5\nholding exp mean=1\n", "expects 2e+08 arrivals"},
		{"peak rate", "scenario a\nphase p 9\narrivals poisson rate=1e6\nholding exp mean=1\nevent step at=1 mult=1e6\n", "peak rate"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("%s: Parse accepted a bad spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestTractableAndEnforceable(t *testing.T) {
	s, err := Parse(goodSpec)
	if err != nil {
		t.Fatal(err)
	}
	if mean, ok := s.Phases[0].Tractable(); !ok || mean != 20 {
		t.Fatalf("steady phase: Tractable = %g, %v; want 20, true", mean, ok)
	}
	if _, ok := s.Phases[1].Tractable(); ok {
		t.Fatal("storm phase (events) should not be tractable")
	}
	if _, ok := s.Phases[2].Tractable(); ok {
		t.Fatal("gamma phase should not be tractable")
	}
	enf := s.Enforceable()
	if !enf[0] || enf[1] || enf[2] {
		t.Fatalf("Enforceable = %v, want [true false false]", enf)
	}
	if _, ok := s.Stationary(); ok {
		t.Fatal("demo scenario should not be stationary")
	}

	flat := `scenario flat
prefill 12
warmup 1
phase a 5
arrivals poisson rate=12
holding exp mean=1
phase b 5
arrivals poisson rate=12
holding exp mean=1
`
	fs, err := Parse(flat)
	if err != nil {
		t.Fatal(err)
	}
	if mean, ok := fs.Stationary(); !ok || mean != 12 {
		t.Fatalf("flat scenario: Stationary = %g, %v; want 12, true", mean, ok)
	}
	// Mismatched prefill breaks enforceability of every phase.
	fs2, err := Parse(strings.Replace(flat, "prefill 12", "prefill 3", 1))
	if err != nil {
		t.Fatal(err)
	}
	if enf := fs2.Enforceable(); enf[0] || enf[1] {
		t.Fatalf("mis-prefilled scenario should not be enforceable: %v", enf)
	}
}

func TestEventMult(t *testing.T) {
	s, err := Parse(goodSpec)
	if err != nil {
		t.Fatal(err)
	}
	storm := &s.Phases[1] // starts at 10; flash [2,4) ×3, step at 6 ×0.5
	cases := []struct {
		t, want float64
	}{
		{10, 1}, {12, 3}, {13.9, 3}, {14, 1}, {16, 0.5}, {17.9, 0.5},
	}
	for _, tc := range cases {
		if got := storm.eventMult(tc.t); got != tc.want {
			t.Errorf("eventMult(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	if e := storm.nextEdge(10); e != 12 {
		t.Fatalf("nextEdge(10) = %g, want 12", e)
	}
	if e := storm.nextEdge(12); e != 14 {
		t.Fatalf("nextEdge(12) = %g, want 14", e)
	}
	if e := storm.nextEdge(16.5); e != 18 {
		t.Fatalf("nextEdge(16.5) = %g, want phase end 18", e)
	}
}
