package sim

import (
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events out of order: %v", got)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run(1000)
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Now() != 1000 {
		t.Errorf("clock = %v", e.Now())
	}
	// Run frees a closure's slot before calling it, so the rescheduled
	// tick reuses the slot it ran from.
	if len(e.fns) != 1 {
		t.Errorf("closure table grew to %d slots for one self-rescheduling closure, want 1", len(e.fns))
	}
}

func TestEngineHorizonCutoff(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func() { ran = true })
	e.Run(4.999)
	if ran {
		t.Error("event past horizon should not run")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run(5)
	if !ran {
		t.Error("event at horizon should run")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		e.Schedule(-5, func() {
			if e.Now() < 1 {
				t.Error("negative delay ran in the past")
			}
		})
	})
	e.Run(2)
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	if got := e.MaxQueued(); got != 5 {
		t.Errorf("max queued = %d, want 5", got)
	}
	if got := e.Dispatched(); got != 0 {
		t.Errorf("dispatched = %d before Run, want 0", got)
	}
	e.Run(10)
	if got := e.Dispatched(); got != 5 {
		t.Errorf("dispatched = %d, want 5", got)
	}
	if got := e.MaxQueued(); got != 5 {
		t.Errorf("max queued = %d after drain, want 5 (high-water mark)", got)
	}
}

// TestEngineClosureSlots: Run empties a closure's slot before calling it,
// so the engine keeps no reference to a dispatched closure, and freed
// slots serve later Schedule calls instead of growing the table.
func TestEngineClosureSlots(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run(3)
	held := 0
	for _, fn := range e.fns {
		if fn != nil {
			held++
		}
	}
	if held != e.Pending() || held != 4 {
		t.Errorf("closure table holds %d closures with %d events queued, want 4 and 4", held, e.Pending())
	}
	e.Run(10)
	for i, fn := range e.fns {
		if fn != nil {
			t.Errorf("slot %d still holds a dispatched closure", i)
		}
	}
	for i := 0; i < 8; i++ {
		e.Schedule(1, func() {})
	}
	if len(e.fns) != 8 {
		t.Errorf("closure table grew to %d slots for 8 queued closures, want 8", len(e.fns))
	}
}

// TestEngineRunSkipsTaggedAndNil: Run dispatches only closures; tagged
// records and a nil closure pass through without effect.
func TestEngineRunSkipsTaggedAndNil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.scheduleTagged(1, evDepart, 7)
	e.Schedule(2, nil)
	e.Schedule(3, func() { ran++ })
	e.Run(5)
	if ran != 1 || e.Dispatched() != 3 || e.Pending() != 0 {
		t.Errorf("ran %d closures of %d dispatched events (%d pending), want 1 of 3 (0)", ran, e.Dispatched(), e.Pending())
	}
}
