package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFIFOOrdering(t *testing.T) {
	f := NewFIFO()
	for i := 1; i <= 3; i++ {
		if err := f.Enqueue(Packet{Flow: i, Size: 1, Arrival: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if f.count != 3 {
		t.Errorf("backlog = %d", f.count)
	}
	for i := 1; i <= 3; i++ {
		p, ok := f.Dequeue()
		if !ok || p.Flow != i {
			t.Fatalf("dequeue %d: got %+v, %v", i, p, ok)
		}
	}
	if _, ok := f.Dequeue(); ok {
		t.Error("empty dequeue should report false")
	}
	if err := f.Enqueue(Packet{Size: 0}); err == nil {
		t.Error("zero-size packet should fail")
	}
}

func TestSCFQValidation(t *testing.T) {
	s := NewSCFQ()
	if err := s.SetWeight(1, 0); err == nil {
		t.Error("zero weight should fail")
	}
	if err := s.Enqueue(Packet{Flow: 1, Size: -1}); err == nil {
		t.Error("negative size should fail")
	}
}

func TestSCFQInterleavesBackloggedFlows(t *testing.T) {
	s := NewSCFQ()
	// Two flows each enqueue 4 unit packets at t = 0; equal weights must
	// interleave them one-for-one.
	for i := 0; i < 4; i++ {
		if err := s.Enqueue(Packet{Flow: 1, Size: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(Packet{Flow: 2, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[int]int{}
	for i := 0; i < 4; i++ {
		a, _ := s.Dequeue()
		b, _ := s.Dequeue()
		counts[a.Flow]++
		counts[b.Flow]++
		if a.Flow == b.Flow {
			t.Fatalf("round %d served flow %d twice", i, a.Flow)
		}
	}
	if counts[1] != 4 || counts[2] != 4 {
		t.Errorf("served counts %v", counts)
	}
}

func TestRunLinkValidation(t *testing.T) {
	if _, err := RunLink(NewFIFO(), 0, nil, 10); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := RunLink(NewFIFO(), 1, nil, 0); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := RunLink(NewFIFO(), 1, []Source{{Flow: 1, Rate: 0, PacketSize: 1}}, 10); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestSCFQEqualSharesUnderOverload(t *testing.T) {
	// Two flows each offer the full link capacity: fair queueing splits it
	// evenly.
	sources := []Source{
		{Flow: 1, Rate: 1, PacketSize: 0.01},
		{Flow: 2, Rate: 1, PacketSize: 0.01},
	}
	stats, err := RunLink(NewSCFQ(), 1, sources, 100)
	if err != nil {
		t.Fatal(err)
	}
	for flow := 1; flow <= 2; flow++ {
		if got := stats[flow].Throughput; math.Abs(got-0.5) > 0.02 {
			t.Errorf("flow %d throughput = %v, want ≈ 0.5", flow, got)
		}
	}
}

func TestSCFQWeightedShares(t *testing.T) {
	s := NewSCFQ()
	if err := s.SetWeight(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWeight(2, 1); err != nil {
		t.Fatal(err)
	}
	sources := []Source{
		{Flow: 1, Rate: 1, PacketSize: 0.01},
		{Flow: 2, Rate: 1, PacketSize: 0.01},
	}
	stats, err := RunLink(s, 1, sources, 100)
	if err != nil {
		t.Fatal(err)
	}
	ratio := stats[1].Throughput / stats[2].Throughput
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("throughput ratio = %v, want ≈ 2 (weights 2:1)", ratio)
	}
}

func TestSCFQNonBackloggedFlowGetsDemand(t *testing.T) {
	// A light flow (20% of capacity) keeps its full demand while a
	// backlogged flow absorbs the remainder.
	sources := []Source{
		{Flow: 1, Rate: 0.2, PacketSize: 0.01},
		{Flow: 2, Rate: 2, PacketSize: 0.01},
	}
	stats, err := RunLink(NewSCFQ(), 1, sources, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[1].Throughput; math.Abs(got-0.2) > 0.02 {
		t.Errorf("light flow throughput = %v, want ≈ 0.2", got)
	}
	if got := stats[2].Throughput; math.Abs(got-0.8) > 0.03 {
		t.Errorf("heavy flow throughput = %v, want ≈ 0.8", got)
	}
}

func TestWorkConservation(t *testing.T) {
	// Under persistent overload the link serves at full capacity under
	// both schedulers.
	sources := []Source{
		{Flow: 1, Rate: 1.5, PacketSize: 0.01},
		{Flow: 2, Rate: 1.5, PacketSize: 0.01},
	}
	for _, s := range []Scheduler{NewFIFO(), NewSCFQ()} {
		stats, err := RunLink(s, 1, sources, 100)
		if err != nil {
			t.Fatal(err)
		}
		total := stats[1].Served + stats[2].Served
		if math.Abs(total-100) > 1 {
			t.Errorf("%T served %v, want ≈ 100 (work conservation)", s, total)
		}
	}
}

func TestFairQueueingProtectsReservedShare(t *testing.T) {
	// The paper's premise, on the wire: a well-behaved flow (25% of
	// capacity) against an aggressor blasting 4× capacity. FIFO sharing
	// collapses the victim's throughput toward its packet share of the
	// queue; fair queueing — the enforcement half of the reservation
	// architecture — preserves it.
	victim := Source{Flow: 1, Rate: 0.25, PacketSize: 0.01}
	aggressor := Source{Flow: 2, Rate: 4, PacketSize: 0.01}

	fifoStats, err := RunLink(NewFIFO(), 1, []Source{victim, aggressor}, 200)
	if err != nil {
		t.Fatal(err)
	}
	scfqStats, err := RunLink(NewSCFQ(), 1, []Source{victim, aggressor}, 200)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: the victim gets ≈ its fraction of offered packets,
	// 0.25/4.25 ≈ 0.06.
	if got := fifoStats[1].Throughput; got > 0.1 {
		t.Errorf("FIFO victim throughput = %v; expected collapse below 0.1", got)
	}
	// Fair queueing: the victim keeps its full demand.
	if got := scfqStats[1].Throughput; math.Abs(got-0.25) > 0.03 {
		t.Errorf("SCFQ victim throughput = %v, want ≈ 0.25", got)
	}
}

func TestSCFQFairnessProperty(t *testing.T) {
	// For random weight pairs, backlogged throughput ratios track the
	// weight ratio.
	prop := func(seedA, seedB float64) bool {
		w1 := 0.5 + math.Mod(math.Abs(seedA), 4)
		w2 := 0.5 + math.Mod(math.Abs(seedB), 4)
		s := NewSCFQ()
		if err := s.SetWeight(1, w1); err != nil {
			return false
		}
		if err := s.SetWeight(2, w2); err != nil {
			return false
		}
		sources := []Source{
			{Flow: 1, Rate: 1, PacketSize: 0.02},
			{Flow: 2, Rate: 1, PacketSize: 0.02},
		}
		stats, err := RunLink(s, 1, sources, 50)
		if err != nil {
			return false
		}
		got := stats[1].Throughput / stats[2].Throughput
		want := w1 / w2
		return math.Abs(got-want) < 0.12*want
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDelayBounded(t *testing.T) {
	// An underloaded link keeps delays near a packet time.
	sources := []Source{{Flow: 1, Rate: 0.5, PacketSize: 0.01}}
	stats, err := RunLink(NewSCFQ(), 1, sources, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].MaxDelay > 0.05 {
		t.Errorf("max delay = %v, want ≈ one packet time", stats[1].MaxDelay)
	}
}
