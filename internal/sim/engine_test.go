package sim

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
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
	if len(e.pq) != 1 {
		t.Errorf("pending = %d, want 1", len(e.pq))
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

	// A NaN or −0.0 delay counts as 0 too: a NaN time would compare false
	// both ways and corrupt the heap's order, and the clock with it.
	e = NewEngine()
	var got []float64
	at := func() { got = append(got, e.Now()) }
	e.Schedule(2, at)
	e.Schedule(math.NaN(), at)
	e.Schedule(1, at)
	e.Schedule(math.Copysign(0, -1), at)
	e.Schedule(3, at)
	e.Run(10)
	if want := []float64{0, 0, 1, 2, 3}; !slices.Equal(got, want) || math.Signbit(got[0]) || math.Signbit(got[1]) {
		t.Errorf("events fired at %v, want %v (all +0 or later)", got, want)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v after Run(10), want 10", e.Now())
	}
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	if got := e.Dispatched(); got != 0 {
		t.Errorf("dispatched = %d before Run, want 0", got)
	}
	e.Run(10)
	if got := e.Dispatched(); got != 5 {
		t.Errorf("dispatched = %d, want 5", got)
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
	if held != len(e.pq) || held != 4 {
		t.Errorf("closure table holds %d closures with %d events queued, want 4 and 4", held, len(e.pq))
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
	if ran != 1 || e.Dispatched() != 3 || len(e.pq) != 0 {
		t.Errorf("ran %d closures of %d dispatched events (%d pending), want 1 of 3 (0)", ran, e.Dispatched(), len(e.pq))
	}
}

// TestEngineOrderMatchesStableSort is the queue's order contract, checked
// differentially: random interleavings of scheduleTagged and next, at
// queue depths from 1 to 5000, must pop exactly the records a stable sort
// by (at, seq) puts first. Most delays are 0, 0.5, 1 or 2, so many records
// tie exactly on at and only seq orders them; the rest are exponential,
// +Inf, −0.0 or negative (clamped to 0).
func TestEngineOrderMatchesStableSort(t *testing.T) {
	type rec struct {
		at  float64
		seq uint64
		ref int32
	}
	byAtSeq := func(a, b rec) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	ties := []float64{0, 0.5, 1, 2}
	for seed := uint64(1); seed <= 2; seed++ {
		src := rand.New(rand.NewPCG(seed, 0x0de7)) // the stream rng.New(seed, 0x0de7) draws
		for _, depth := range []int{1, 2, 3, 4, 5, 6, 13, 50, 64, 341, 1365, 5000} {
			e := NewEngine()
			var ref []rec // the queue's records; ref[:sorted] is sorted
			sorted := 0
			var seq uint64
			ops := 4*depth + 200
			for op := 0; op < ops; op++ {
				// A random walk around the target depth: push below it,
				// pop above it, either in between.
				push := src.IntN(2*depth+2) >= len(ref)
				if push {
					var d float64
					switch u := src.IntN(100); {
					case u < 60:
						d = ties[src.IntN(len(ties))]
					case u < 85:
						d = src.ExpFloat64()
					case u < 90:
						d = math.Copysign(0, -1)
					case u < 97:
						d = -src.ExpFloat64()
					default:
						d = math.Inf(1)
					}
					seq++
					id := int32(seq)
					e.scheduleTagged(d, evDepart, id)
					ref = append(ref, rec{at: e.Now() + math.Max(d, 0), seq: seq, ref: id})
					continue
				}
				if sorted < len(ref) {
					slices.SortStableFunc(ref, byAtSeq)
					sorted = len(ref)
				}
				// Mostly drain without a horizon; sometimes stop at one that
				// may fall before the earliest record, which must stay queued.
				until := math.Inf(1)
				if src.IntN(4) == 0 {
					until = e.Now() + ties[src.IntN(len(ties))]
				}
				now := e.Now()
				ev, ok := e.next(until)
				if wantOK := len(ref) > 0 && ref[0].at <= until; ok != wantOK {
					t.Fatalf("seed %d depth %d op %d: next(%v) ok = %v, want %v", seed, depth, op, until, ok, wantOK)
				}
				if !ok {
					if want := math.Max(now, until); e.Now() != want {
						t.Fatalf("seed %d depth %d op %d: clock %v after an empty next(%v), want %v", seed, depth, op, e.Now(), until, want)
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				sorted--
				if ev.at != want.at || ev.seq != want.seq || ev.ref != want.ref || e.Now() != want.at {
					t.Fatalf("seed %d depth %d op %d: popped (at %v, seq %d, ref %d), clock %v; want (at %v, seq %d, ref %d)",
						seed, depth, op, ev.at, ev.seq, ev.ref, e.Now(), want.at, want.seq, want.ref)
				}
				if len(e.pq) != len(ref) {
					t.Fatalf("seed %d depth %d op %d: %d pending, want %d", seed, depth, op, len(e.pq), len(ref))
				}
			}
		}
	}
}
