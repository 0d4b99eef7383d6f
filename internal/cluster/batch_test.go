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
// nodes on the shared bottleneck, so their hops meet in the shared link's
// coalescers: grants across every batch must sum to exactly the shared
// bound, denied flows must leave zero upstream residue, and concurrent
// batched teardowns release every grant exactly once. Run under -race in
// CI.
func TestClusterBatchRacedBoundary(t *testing.T) {
	cl := startCluster(t, sharedSpec, Config{})
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
// suppressed (and counted) until the occupancy moves, except the full
// sweeps, one tick in sweepTicks, so a quiet cluster's gossip traffic
// falls to one frame per link and sweep.
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
	// Stable occupancy: suppression keeps counting, and only the sweeps
	// send. sweepTicks−1 suppressed ticks lie between two sweeps; the
	// slack of two sends allows for the counters' reads straddling a tick.
	stable := func(at string) {
		t.Helper()
		out := b.Metrics().GossipOut.Load()
		sup := b.Metrics().GossipSuppressed.Load()
		waitFor(t, "five more suppressed ticks "+at, func() bool {
			return b.Metrics().GossipSuppressed.Load() >= sup+5
		})
		sent := int64(b.Metrics().GossipOut.Load() - out)
		suppressed := int64(b.Metrics().GossipSuppressed.Load() - sup)
		if sent < 1 || (sent-2)*(sweepTicks-1) > suppressed {
			t.Fatalf("%d sends against %d suppressed ticks %s, want one per %d ticks", sent, suppressed, at, sweepTicks)
		}
	}
	stable("at the first occupancy")

	// Occupancy moves: the link is re-advertised, and the new level is
	// suppressed in turn.
	l := cl.Node(0).NewLocal()
	verdict, _, err := l.ReserveBatch(0, []uint64{1, 2, 3}, 1)
	if err != nil || verdict.Count() != 3 {
		t.Fatalf("batch reserve: verdict %b err %v", verdict, err)
	}
	waitFor(t, "changed occupancy re-advertised", func() bool {
		active, _ := cl.Node(0).view.load(0)
		return active == 3
	})
	stable("at the new occupancy")
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
			r := n.dispatchClientBatch(l.c, tc.ops, n.lc.Now())
			if v := resv.BatchVerdict(r.FlowID); v != tc.verdict {
				t.Fatalf("verdict %0*b, want %0*b", len(tc.ops), uint64(v), len(tc.ops), uint64(tc.verdict))
			}
			if a := n.LinkActive(0); a != tc.held {
				t.Fatalf("link holds %d claims, want %d", a, tc.held)
			}
		})
	}
}

// TestClusterBatchMultiHopClaimsTogether pins the client plane's batch
// contract on multi-hop paths. x1 and y1 hold one flow each, and x1 is
// full. Sent singly, a reserve on a (x1, y1) is denied at x1 before it
// claims y1, so a reserve on b (y1) is granted. Sent as one body, a's hops
// go out with b's before any verdict comes back: a's claim on y1 is in
// place when b's arrives, so b is denied too, and a's y1 claim is then
// rolled back. Either way nothing is left held.
func TestClusterBatchMultiHopClaimsTogether(t *testing.T) {
	const spec = `
node e
node x
node y
link x1 x 1
link y1 y 1
path pa x1,y1
path pfill x1
path pb y1
pair a e y pa
pair fill e x pfill
pair b e y pb
`
	const pairA, pairFill, pairB = 0, 1, 2
	for _, body := range []bool{false, true} {
		cl := startCluster(t, spec, Config{AntiEntropy: -1})
		x1, y1 := cl.topo.LinkIndex("x1"), cl.topo.LinkIndex("y1")
		if b := cl.Bounds(); b[x1] != 1 || b[y1] != 1 {
			t.Fatalf("link bounds %v, want one flow each", b)
		}
		e := cl.Node(0)
		l := e.NewLocal()
		if ok, _, err := l.Reserve(pairFill, 0, 1); err != nil || !ok {
			t.Fatalf("fill x1: granted=%v err=%v", ok, err)
		}
		var a, b bool
		if body {
			r := e.dispatchClientBatch(l.c, []resv.Frame{
				{Type: resv.MsgRequest, FlowID: FlowID(pairA, 1), Value: 1},
				{Type: resv.MsgRequest, FlowID: FlowID(pairB, 1), Value: 1},
			}, e.lc.Now())
			v := resv.BatchVerdict(r.FlowID)
			a, b = v.Granted(0), v.Granted(1)
		} else {
			var err error
			if a, _, err = l.Reserve(pairA, 1, 1); err != nil {
				t.Fatal(err)
			}
			if b, _, err = l.Reserve(pairB, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		// Singly, b gets y1; in one body, a's doomed claim holds it.
		wantB, rollbacks, forwards := true, uint64(0), uint64(3)
		if body {
			wantB, rollbacks, forwards = false, 1, 4
		}
		if a || b != wantB {
			t.Errorf("body=%v: a granted %v, b granted %v; want false, %v", body, a, b, wantB)
		}
		if got := e.Metrics().Rollbacks.Load(); got != rollbacks {
			t.Errorf("body=%v: %d rollbacks, want %d", body, got, rollbacks)
		}
		if got := e.Metrics().Forwards.Load(); got != forwards {
			t.Errorf("body=%v: %d forwards, want %d", body, got, forwards)
		}
		heldY := int64(0)
		if b {
			heldY = 1
		}
		if got := cl.Node(1).LinkActive(x1); got != 1 {
			t.Errorf("body=%v: x1 holds %d claims, want only the fill's", body, got)
		}
		if got := cl.Node(2).LinkActive(y1); got != heldY {
			t.Errorf("body=%v: y1 holds %d claims, want %d", body, got, heldY)
		}
		l.Close()
		if hx, hy := cl.Node(1).LinkActive(x1), cl.Node(2).LinkActive(y1); hx != 0 || hy != 0 {
			t.Errorf("body=%v: x1 and y1 hold %d and %d claims after the handle closed", body, hx, hy)
		}
	}
}
