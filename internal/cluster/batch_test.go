package cluster

import (
	"sync"
	"testing"
	"time"

	"beqos/internal/resv"
)

// TestClusterBatchLifecycle walks a batched path reservation end to end on
// the shared-bottleneck fixture: one ReserveBatch claims every hop for all
// its flows, the verdict reports each grant, both links carry exactly the
// granted claims, and one TeardownBatch drains everything.
func TestClusterBatchLifecycle(t *testing.T) {
	cl := startCluster(t, sharedSpec, Config{})
	topo := cl.topo
	laIdx, shIdx := topo.LinkIndex("la"), topo.LinkIndex("shared")

	la := cl.Node(0).NewLocal()
	seqs := []uint64{1, 2, 3, 4, 5, 6}
	verdict, share, err := la.ReserveBatch(0, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict.Count(); got != len(seqs) {
		t.Fatalf("batch of %d on an empty path granted %d (verdict %b)", len(seqs), got, verdict)
	}
	if !(share > 0) {
		t.Fatalf("granted batch share %g", share)
	}
	if a := cl.Node(0).LinkActive(laIdx); a != int64(len(seqs)) {
		t.Errorf("link la holds %d claims, %d flows granted", a, len(seqs))
	}
	if a := cl.Node(2).LinkActive(shIdx); a != int64(len(seqs)) {
		t.Errorf("shared link holds %d claims, %d flows granted", a, len(seqs))
	}

	down, err := la.TeardownBatch(0, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := down.Count(); got != len(seqs) {
		t.Fatalf("batched teardown of %d flows confirmed %d (verdict %b)", len(seqs), got, down)
	}
	if a := cl.Node(0).LinkActive(laIdx); a != 0 {
		t.Errorf("link la holds %d claims after batched teardown", a)
	}
	if a := cl.Node(2).LinkActive(shIdx); a != 0 {
		t.Errorf("shared link holds %d claims after batched teardown", a)
	}
	// A second batched teardown of the same flows confirms nothing and
	// releases nothing — teardown is exactly-once under batching too.
	down, err = la.TeardownBatch(0, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if down != 0 {
		t.Errorf("re-teardown batch confirmed bits %b, want none", down)
	}
	if a := cl.Node(2).LinkActive(shIdx); a != 0 {
		t.Errorf("shared link at %d after duplicate batched teardown", a)
	}
}

// TestClusterBatchPartialGrantRollsBack pins the multi-hop partial-grant
// contract: a batch straddling the shared link's remaining headroom grants
// exactly the free slots as a prefix, and every denied flow's
// already-claimed upstream hop is rolled back — the entry link holds
// exactly the granted claims, never the attempted ones.
func TestClusterBatchPartialGrantRollsBack(t *testing.T) {
	const j = 3 // free slots left on the shared link
	cl := startCluster(t, sharedSpec, Config{})
	topo := cl.topo
	laIdx, shIdx := topo.LinkIndex("la"), topo.LinkIndex("shared")
	bound := cl.Bounds()[shIdx]

	lb := cl.Node(1).NewLocal()
	var fill []uint64
	for i := 0; i < bound-j; i++ {
		granted, _, err := lb.Reserve(1, uint64(i), 1)
		if err != nil || !granted {
			t.Fatalf("fill reserve %d: granted=%v err=%v", i, granted, err)
		}
		fill = append(fill, uint64(i))
	}

	la := cl.Node(0).NewLocal()
	seqs := []uint64{10, 11, 12, 13, 14, 15, 16, 17}
	verdict, _, err := la.ReserveBatch(0, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict.Count(); got != j {
		t.Fatalf("batch of %d against %d free slots granted %d (verdict %b)", len(seqs), j, got, verdict)
	}
	for i := 0; i < j; i++ {
		if !verdict.Granted(i) {
			t.Fatalf("partial grant is not a prefix: verdict %b", verdict)
		}
	}
	if a := cl.Node(2).LinkActive(shIdx); a != int64(bound) {
		t.Errorf("shared link holds %d claims, bound is %d", a, bound)
	}
	if a := cl.Node(0).LinkActive(laIdx); a != j {
		t.Errorf("link la holds %d claims, %d flows granted — denied flows left residue", a, j)
	}
	if r := cl.Node(0).Metrics().Rollbacks.Load(); r == 0 {
		t.Error("no rollbacks recorded despite denials on the shared link")
	}

	// Drain: batched teardown of the granted prefix plus the fill side.
	down, err := la.TeardownBatch(0, seqs[:j])
	if err != nil || down.Count() != j {
		t.Fatalf("teardown of the granted prefix: verdict %b err %v", down, err)
	}
	down, err = lb.TeardownBatch(1, fill)
	if err != nil || down.Count() != len(fill) {
		t.Fatalf("teardown of the fill: verdict %b err %v", down, err)
	}
	for _, link := range []struct {
		node int
		idx  int
	}{{0, laIdx}, {2, shIdx}} {
		if a := cl.Node(link.node).LinkActive(link.idx); a != 0 {
			t.Errorf("link %s holds %d claims after full teardown", topo.Links[link.idx].ID, a)
		}
	}
}

// TestClusterBatchRacedBoundary races batched admissions from both entry
// nodes on the shared bottleneck with the hop coalescer's Nagle flush
// enabled: grants across every batch must sum to exactly the shared bound,
// denied flows must leave zero upstream residue, and concurrent batched
// teardowns release every grant exactly once. Run under -race in CI.
func TestClusterBatchRacedBoundary(t *testing.T) {
	cl := startCluster(t, sharedSpec, Config{HopBatchDelay: time.Millisecond})
	topo := cl.topo
	laIdx, lbIdx, shIdx := topo.LinkIndex("la"), topo.LinkIndex("lb"), topo.LinkIndex("shared")
	bound := cl.Bounds()[shIdx]

	const workers, per = 4, 8
	type side struct {
		local *Local
		pair  int
		mu    sync.Mutex
		seqs  []uint64
	}
	sides := []*side{
		{local: cl.Node(0).NewLocal(), pair: 0},
		{local: cl.Node(1).NewLocal(), pair: 1},
	}
	var wg sync.WaitGroup
	for _, s := range sides {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *side, w int) {
				defer wg.Done()
				batch := make([]uint64, per)
				for i := range batch {
					batch[i] = uint64(w*per + i)
				}
				verdict, _, err := s.local.ReserveBatch(s.pair, batch, 1)
				if err != nil {
					t.Errorf("batch reserve: %v", err)
					return
				}
				s.mu.Lock()
				for i, seq := range batch {
					if verdict.Granted(i) {
						s.seqs = append(s.seqs, seq)
					}
				}
				s.mu.Unlock()
			}(s, w)
		}
	}
	wg.Wait()

	grantsX, grantsY := int64(len(sides[0].seqs)), int64(len(sides[1].seqs))
	if total := grantsX + grantsY; total != int64(bound) {
		t.Errorf("raced batches granted %d paths through a link with bound %d (offered %d)",
			total, bound, 2*workers*per)
	}
	if a := cl.Node(0).LinkActive(laIdx); a != grantsX {
		t.Errorf("link la holds %d claims, %d grants", a, grantsX)
	}
	if a := cl.Node(1).LinkActive(lbIdx); a != grantsY {
		t.Errorf("link lb holds %d claims, %d grants", a, grantsY)
	}

	// Concurrent batched teardowns: every grant released exactly once.
	for _, s := range sides {
		if len(s.seqs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *side) {
			defer wg.Done()
			verdict, err := s.local.TeardownBatch(s.pair, s.seqs)
			if err != nil {
				t.Errorf("batch teardown: %v", err)
				return
			}
			if verdict.Count() != len(s.seqs) {
				t.Errorf("batched teardown of %d grants confirmed %d", len(s.seqs), verdict.Count())
			}
		}(s)
	}
	wg.Wait()
	for _, link := range []struct {
		node int
		idx  int
	}{{0, laIdx}, {1, lbIdx}, {2, shIdx}} {
		if a := cl.Node(link.node).LinkActive(link.idx); a != 0 {
			t.Errorf("link %s holds %d claims after full teardown", topo.Links[link.idx].ID, a)
		}
	}
}

// TestClusterBatchOwnerKilled: batched admissions over a dead link owner
// fail cleanly — no grant bits, no claims stranded on the live entry link.
func TestClusterBatchOwnerKilled(t *testing.T) {
	cl := startCluster(t, sharedSpec, Config{AntiEntropy: -1})
	topo := cl.topo
	laIdx := topo.LinkIndex("la")

	cl.Kill(2) // owner of the shared link
	la := cl.Node(0).NewLocal()
	verdict, _, err := la.ReserveBatch(0, []uint64{1, 2, 3, 4}, 1)
	if err == nil && verdict != 0 {
		t.Fatalf("batch through a dead owner granted bits %b", verdict)
	}
	if a := cl.Node(0).LinkActive(laIdx); a != 0 {
		t.Errorf("link la holds %d claims after a batch failed on its dead downstream", a)
	}
	if f := cl.Node(0).Metrics().ForwardErrors.Load(); f == 0 {
		t.Error("no forward errors recorded against the dead owner")
	}
}

// TestClusterGossipSuppression pins delta suppression on the anti-entropy
// tick: once a link's occupancy has been advertised, further ticks are
// suppressed (and counted) until the occupancy moves, so a quiet cluster's
// gossip traffic collapses to zero frames.
func TestClusterGossipSuppression(t *testing.T) {
	// One remote-owned link: node a places over it, node b owns it. Only b
	// has links to advertise, so b's counters tell the whole story.
	const spec = "node a\nnode b\nlink l b 64\npath p l\npair x a b p\n"
	cl := startCluster(t, spec, Config{AntiEntropy: 2 * time.Millisecond})
	b := cl.Node(1)

	waitFor(t, "first occupancy snapshot sent", func() bool {
		return b.Metrics().GossipOut.Load() >= 1
	})
	waitFor(t, "anti-entropy suppression to engage", func() bool {
		return b.Metrics().GossipSuppressed.Load() >= 1
	})
	// Stable occupancy: suppression keeps counting while sends stay flat.
	out := b.Metrics().GossipOut.Load()
	sup := b.Metrics().GossipSuppressed.Load()
	waitFor(t, "five more suppressed ticks", func() bool {
		return b.Metrics().GossipSuppressed.Load() >= sup+5
	})
	if now := b.Metrics().GossipOut.Load(); now != out {
		t.Fatalf("gossip out moved %d → %d while occupancy was stable", out, now)
	}

	// Occupancy moves: the next tick (or the batch reply's piggyback)
	// re-advertises the link.
	l := cl.Node(0).NewLocal()
	verdict, _, err := l.ReserveBatch(0, []uint64{1, 2, 3}, 1)
	if err != nil || verdict.Count() != 3 {
		t.Fatalf("batch reserve: verdict %b err %v", verdict, err)
	}
	waitFor(t, "changed occupancy re-advertised", func() bool {
		return b.Metrics().GossipOut.Load() > out
	})

	// And the new level is suppressed in turn once advertised.
	out2 := b.Metrics().GossipOut.Load()
	sup2 := b.Metrics().GossipSuppressed.Load()
	waitFor(t, "suppression at the new occupancy", func() bool {
		return b.Metrics().GossipSuppressed.Load() >= sup2+5
	})
	if now := b.Metrics().GossipOut.Load(); now > out2+1 {
		t.Fatalf("gossip out kept climbing (%d → %d) after the new occupancy was advertised", out2, now)
	}
}

// TestClusterBatchRepeatedFlowID sends bodies that name one flow ID more
// than once on the client plane: an op on a flow an earlier op of the body
// left pending is served once that op has finished, so each body answers
// as its ops sent singly would.
func TestClusterBatchRepeatedFlowID(t *testing.T) {
	req := func(seq uint64) resv.Frame {
		return resv.Frame{Type: resv.MsgRequest, FlowID: FlowID(0, seq), Value: 1}
	}
	down := func(seq uint64) resv.Frame { return resv.Frame{Type: resv.MsgTeardown, FlowID: FlowID(0, seq)} }
	cases := []struct {
		name    string
		ops     []resv.Frame
		verdict resv.BatchVerdict
		held    int64
	}{
		{"reserve then teardown", []resv.Frame{req(11), down(11)}, 0b11, 0},
		{"reserve twice", []resv.Frame{req(11), req(11)}, 0b01, 1},
		{"reserve, teardown, reserve", []resv.Frame{req(11), down(11), req(11)}, 0b111, 1},
		{"teardown between others", []resv.Frame{req(11), req(12), down(11), req(13)}, 0b1111, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := startCluster(t, "node a\nlink l a 8\npath p l\npair x a a p\n", Config{AntiEntropy: -1}).Node(0)
			l := n.NewLocal()
			defer l.Close()
			r := n.dispatchClientBatch(l.c, tc.ops, n.nowNanos())
			if v := resv.BatchVerdict(r.FlowID); v != tc.verdict {
				t.Fatalf("verdict %0*b, want %0*b", len(tc.ops), uint64(v), len(tc.ops), uint64(tc.verdict))
			}
			if a := n.LinkActive(0); a != tc.held {
				t.Fatalf("link holds %d claims, want %d", a, tc.held)
			}
		})
	}
}
