package sim

import (
	"testing"
)

// TestEngineDispatchZeroAlloc pins the engine's steady-state allocation
// budget: scheduling and dispatching tagged event records must not allocate
// once the heap's backing array has warmed up.
func TestEngineDispatchZeroAlloc(t *testing.T) {
	e := NewEngine()
	// Warm the heap to its steady-state footprint.
	for i := 0; i < 64; i++ {
		e.scheduleTagged(float64(i), evSample, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.scheduleTagged(1, evSample, 0)
		if _, ok := e.next(1e18); !ok {
			t.Fatal("event lost")
		}
	})
	if allocs != 0 {
		t.Errorf("engine schedule+dispatch allocates %v/op, want 0", allocs)
	}
	// The closure path: a pre-built func value goes into a recycled slot of
	// the closure table, so scheduling and running it allocates nothing
	// either.
	fn := func() {}
	allocs = testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("engine Schedule+Run allocates %v/op, want 0", allocs)
	}
}

// TestRunAllocationBudget guards the simulator's zero-steady-state-
// allocation property end to end: a run landing thousands of flows must
// stay within a small fixed budget (setup, result histograms), nowhere
// near the old per-flow closure regime (~7 allocs per flow).
func TestRunAllocationBudget(t *testing.T) {
	cfg := mmInfConfig(t, 120, BestEffort, 5)
	cfg.Workload = mmInf(t, 500, 50)
	res, err := Run(cfg) // ≈ 5000 flows
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows < 3000 {
		t.Fatalf("run too small to be meaningful: %d flows", res.Flows)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("Run allocates %v/op for %d flows, want a small flow-independent budget (≤ 200)", allocs, res.Flows)
	}
}

// TestFlowArenaRecycles checks the free list actually bounds the arena:
// a long run with ~100 concurrent flows must not grow the arena anywhere
// near the total flow count.
func TestFlowArenaRecycles(t *testing.T) {
	cfg := mmInfConfig(t, 120, BestEffort, 6)
	cfg.Workload = mmInf(t, 500, 50)
	s, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.run()
	if s.nflows < 3000 {
		t.Fatalf("run too small: %d flows", s.nflows)
	}
	if got := len(s.flows); got > 1024 {
		t.Errorf("flow arena grew to %d slots for %d flows; free list is not recycling", got, s.nflows)
	}
}
