package sched

import (
	"math/rand/v2"
	"sort"
	"testing"

	"beqos/internal/rng"
)

// TestFIFORingWraparound drives the ring through many interleaved
// enqueue/dequeue cycles against a plain-slice reference queue.
func TestFIFORingWraparound(t *testing.T) {
	f := NewFIFO()
	var ref []Packet
	src := rng.New(1, 2)
	next := 0
	for step := 0; step < 20000; step++ {
		if src.Float64() < 0.55 {
			next++
			p := Packet{Flow: next, Size: 1, Arrival: float64(step)}
			if err := f.Enqueue(p); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, p)
		} else {
			got, ok := f.Dequeue()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("step %d: dequeue from empty ring returned %+v", step, got)
				}
				continue
			}
			want := ref[0]
			ref = ref[1:]
			if !ok || got != want {
				t.Fatalf("step %d: got %+v, want %+v", step, got, want)
			}
		}
		if f.count != len(ref) {
			t.Fatalf("step %d: backlog %d, want %d", step, f.count, len(ref))
		}
	}
}

// TestFIFORingShrinks is the regression test for the unbounded head-slice
// growth: after a large backlog drains, the ring must hand memory back
// instead of pinning the high-water mark forever.
func TestFIFORingShrinks(t *testing.T) {
	f := NewFIFO()
	const burst = 1 << 16
	for i := 0; i < burst; i++ {
		if err := f.Enqueue(Packet{Flow: i, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	peak := len(f.ring)
	if peak < burst {
		t.Fatalf("ring capacity %d below backlog %d", peak, burst)
	}
	for i := 0; i < burst; i++ {
		if _, ok := f.Dequeue(); !ok {
			t.Fatalf("lost packet %d", i)
		}
	}
	if len(f.ring) != fifoMinCap {
		t.Errorf("ring capacity after drain = %d, want the floor %d (peak was %d)", len(f.ring), fifoMinCap, peak)
	}
	// Still a working queue after shrinking.
	if err := f.Enqueue(Packet{Flow: 7, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if p, ok := f.Dequeue(); !ok || p.Flow != 7 {
		t.Errorf("post-shrink dequeue = %+v, %v", p, ok)
	}
}

// refSCFQ is an order-only reference implementation: identical tag
// arithmetic, but a sorted slice instead of per-flow rings + heap.
type refSCFQ struct {
	weights map[int]float64
	lastF   map[int]float64
	v       float64
	seq     uint64
	q       []scfqItem
}

func newRefSCFQ() *refSCFQ {
	return &refSCFQ{weights: map[int]float64{}, lastF: map[int]float64{}}
}

func (r *refSCFQ) enqueue(p Packet) {
	w := r.weights[p.Flow]
	if w == 0 {
		w = 1
	}
	start := r.v
	if f := r.lastF[p.Flow]; f > start {
		start = f
	}
	finish := start + p.Size/w
	r.lastF[p.Flow] = finish
	r.seq++
	r.q = append(r.q, scfqItem{pkt: p, finish: finish, seq: r.seq})
}

func (r *refSCFQ) dequeue() (Packet, bool) {
	if len(r.q) == 0 {
		return Packet{}, false
	}
	sort.SliceStable(r.q, func(i, j int) bool {
		if r.q[i].finish != r.q[j].finish {
			return r.q[i].finish < r.q[j].finish
		}
		return r.q[i].seq < r.q[j].seq
	})
	it := r.q[0]
	r.q = r.q[1:]
	r.v = it.finish
	return it.pkt, true
}

// TestSCFQMatchesReferenceOrder drives the per-flow-ring + intrusive-heap
// SCFQ and the reference global-order implementation with an identical
// random workload (several flows, random sizes and weights, random
// enqueue/dequeue interleaving) and demands the exact same service order.
func TestSCFQMatchesReferenceOrder(t *testing.T) {
	s := NewSCFQ()
	ref := newRefSCFQ()
	src := rand.New(rand.NewPCG(5, 9)) // the stream rng.New(5, 9) draws
	weights := []float64{1, 2, 0.5, 3, 1.5}
	for flow, w := range weights {
		if err := s.SetWeight(flow, w); err != nil {
			t.Fatal(err)
		}
		ref.weights[flow] = w
	}
	for step := 0; step < 30000; step++ {
		if src.Float64() < 0.6 {
			p := Packet{
				Flow:    src.IntN(len(weights) + 2), // includes unweighted flows
				Size:    0.1 + src.Float64(),
				Arrival: float64(step),
			}
			if err := s.Enqueue(p); err != nil {
				t.Fatal(err)
			}
			ref.enqueue(p)
		} else {
			got, okGot := s.Dequeue()
			want, okWant := ref.dequeue()
			if okGot != okWant || got != want {
				t.Fatalf("step %d: scfq (%+v, %v) vs reference (%+v, %v)", step, got, okGot, want, okWant)
			}
		}
		if s.backlog != len(ref.q) {
			t.Fatalf("step %d: backlog %d, want %d", step, s.backlog, len(ref.q))
		}
	}
	// Drain both completely.
	for {
		got, okGot := s.Dequeue()
		want, okWant := ref.dequeue()
		if okGot != okWant || got != want {
			t.Fatalf("drain: scfq (%+v, %v) vs reference (%+v, %v)", got, okGot, want, okWant)
		}
		if !okGot {
			break
		}
	}
}

// TestSCFQZeroAllocSteadyState pins the 0 allocs/op contract for the SCFQ
// hot path once flow slots and rings have warmed up.
func TestSCFQZeroAllocSteadyState(t *testing.T) {
	s := NewSCFQ()
	for i := 0; i < 256; i++ {
		if err := s.Enqueue(Packet{Flow: i % 16, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, ok := s.Dequeue(); !ok {
			break
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		if err := s.Enqueue(Packet{Flow: i % 16, Size: 1}); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("unexpected empty queue")
		}
	})
	if allocs != 0 {
		t.Errorf("SCFQ enqueue+dequeue allocates %v/op, want 0", allocs)
	}
}

// TestFIFOZeroAllocSteadyState does the same for the best-effort baseline.
func TestFIFOZeroAllocSteadyState(t *testing.T) {
	f := NewFIFO()
	if err := f.Enqueue(Packet{Flow: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Dequeue(); !ok {
		t.Fatal("warmup dequeue failed")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := f.Enqueue(Packet{Flow: 1, Size: 1}); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.Dequeue(); !ok {
			t.Fatal("unexpected empty queue")
		}
	})
	if allocs != 0 {
		t.Errorf("FIFO enqueue+dequeue allocates %v/op, want 0", allocs)
	}
}

// TestSCFQManyFlows exercises slot growth and the heap with a flow
// population far beyond the micro benchmarks.
func TestSCFQManyFlows(t *testing.T) {
	s := NewSCFQ()
	const flows = 1000
	for i := 0; i < flows; i++ {
		if err := s.Enqueue(Packet{Flow: i, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if s.backlog != flows {
		t.Fatalf("backlog = %d", s.backlog)
	}
	seen := make(map[int]bool, flows)
	for i := 0; i < flows; i++ {
		p, ok := s.Dequeue()
		if !ok || seen[p.Flow] {
			t.Fatalf("dequeue %d: ok=%v flow=%d (dup=%v)", i, ok, p.Flow, seen[p.Flow])
		}
		seen[p.Flow] = true
	}
	if _, ok := s.Dequeue(); ok {
		t.Error("queue should be empty")
	}
}
