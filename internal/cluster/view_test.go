package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/resv"
)

// TestViewApplyMonotone races two writers over one view cell, the way a
// remote link's snapshots arrive on both the inbound peer connection and
// the outbound client's batch replies. One writer applies the odd
// versions, the other the even ones, each in rising order with active =
// version, while a reader watches the cell. The cell must end on the
// highest version with its own active count, and the reader must never
// see the version or the count go down.
func TestViewApplyMonotone(t *testing.T) {
	rounds, last := 20, uint64(400_000)
	if raceEnabled {
		// Each apply runs about ten times slower under the detector,
		// which also widens the window between check and store: an
		// unserialized writer is caught in the first round or two.
		rounds, last = 4, 100_000
	}
	for round := 0; round < rounds; round++ {
		v := newView(1)
		c := &v.cells[0]
		var wg sync.WaitGroup
		var done atomic.Bool
		wg.Add(2)
		for w := uint64(1); w <= 2; w++ {
			go func(first uint64) {
				defer wg.Done()
				for ver := first; ver <= last; ver += 2 {
					v.apply(0, ver, int64(ver), 0, 1)
				}
			}(w)
		}
		down := make(chan bool, 1)
		go func() {
			var ver uint64
			var active int64
			for !done.Load() {
				a, _ := v.load(0)
				nv := c.version.Load()
				if nv < ver || a < active {
					down <- true
					return
				}
				ver, active = nv, a
			}
			down <- false
		}()
		wg.Wait()
		done.Store(true)
		if <-down {
			t.Fatalf("round %d: a reader saw the cell's version or active count go down", round)
		}
		active, updated := v.load(0)
		if ver := c.version.Load(); ver != last || active != int64(last) || updated != 1 {
			t.Fatalf("round %d: cell ends at version %d, active %d, updated %d; want version %d with active %d",
				round, ver, active, updated, last, last)
		}
	}
}

// TestClientPlaneRefusesGossip checks that a gossip frame on the client
// plane is answered with bad-request and not applied. Were it applied, a
// forged version of 2^48−1 would freeze the node's view of the link: every
// later snapshot of its owner would be older.
func TestClientPlaneRefusesGossip(t *testing.T) {
	cl := startCluster(t, "node a\nnode b\nlink l b 8\npath p l\npair x a b p\n", Config{AntiEntropy: -1})
	a, b := cl.Node(0), cl.Node(1)
	nc := diffConn(t, a.HandleClientConn)
	forged := resv.Frame{Type: resv.MsgGossip, FlowID: 0<<idxShift | keyMask, Value: 7}
	if r := diffRoundTrip(t, nc, []resv.Frame{forged, {Type: resv.MsgStats}}); r.Type != resv.MsgError || r.Value != float64(resv.ErrCodeBadRequest) {
		t.Fatalf("client-plane gossip answered %+v, want a bad-request error", r)
	}
	if r := diffRead(t, nc); r.Type != resv.MsgStatsReply {
		t.Fatalf("stats after the gossip frame answered %+v", r)
	}

	l := a.NewLocal()
	defer l.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if ok, _, err := l.Reserve(0, seq, 1); err != nil || !ok {
			t.Fatalf("reserve %d: granted %v, %v", seq, ok, err)
		}
	}
	b.gossipAll(true)
	waitFor(t, "the owner's snapshot to land", func() bool {
		active, _ := a.view.load(0)
		return active == 3
	})
}

// TestViewEstimateFollowsOwnClaims: between snapshots, a node's estimate of
// a remote link follows its own claims on it. The entry fills via-b, the
// owner's snapshot lands, and the entry then releases every flow: with no
// newer snapshot, via-b reads empty, not full, and a new claim reads as
// one.
func TestViewEstimateFollowsOwnClaims(t *testing.T) {
	cl := startCluster(t, twoPathSpec, Config{AntiEntropy: -1})
	a, lb := cl.Node(0), cl.topo.LinkIndex("lb")
	viaB, bound := cl.topo.pathIdx["via-b"], cl.Bounds()[lb]
	l := a.NewLocal()
	defer l.Close()
	for seq := 0; seq < bound; seq++ {
		if ok, _, err := l.Reserve(1, uint64(seq), 1); err != nil || !ok {
			t.Fatalf("fill %d: granted %v, %v", seq, ok, err)
		}
	}
	cl.Node(1).gossipAll(true)
	waitFor(t, "the owner's snapshot of a full lb", func() bool {
		active, _ := a.view.load(lb)
		return active == int64(bound)
	})
	if load, fresh := a.pathLoad(viaB, 0); !fresh || load != 1 {
		t.Fatalf("via-b after the snapshot: load %g (fresh %v), want 1", load, fresh)
	}
	for seq := 0; seq < bound; seq++ {
		if err := l.Teardown(1, uint64(seq)); err != nil {
			t.Fatalf("teardown %d: %v", seq, err)
		}
	}
	if load, fresh := a.pathLoad(viaB, 0); !fresh || load != 0 {
		t.Fatalf("via-b once the entry released its flows: load %g (fresh %v), want 0", load, fresh)
	}
	if ok, _, err := l.Reserve(1, 0, 1); err != nil || !ok {
		t.Fatalf("reserve after the releases: granted %v, %v", ok, err)
	}
	if load, _ := a.pathLoad(viaB, 0); load != 1/float64(bound) {
		t.Fatalf("via-b holding one flow: load %g, want %g", load, 1/float64(bound))
	}
}

// TestQuietLinkStaysFresh: a link whose occupancy never moves is still
// re-sent by the anti-entropy sweeps, so 50 ms after its first snapshot
// (25 anti-entropy ticks, over three staleness bounds) a peer's load
// signal for it is fresh, and two-choice still routes on it.
func TestQuietLinkStaysFresh(t *testing.T) {
	cl := startCluster(t, twoPathSpec, Config{AntiEntropy: 2 * time.Millisecond})
	a, lc, viaC := cl.Node(0), cl.topo.LinkIndex("lc"), cl.topo.pathIdx["via-c"]
	var first int64
	waitFor(t, "the first snapshot of lc", func() bool {
		_, first = a.view.load(lc)
		return first != 0
	})
	waitFor(t, "a fresh load signal for lc 50 ms after its first snapshot", func() bool {
		now := a.lc.Now()
		_, fresh := a.pathLoad(viaC, now)
		return fresh && now-first > int64(50*time.Millisecond)
	})
}

// BenchmarkGossipApply times one occupancy snapshot landing in a node's
// gossip view through Node.applyGossip: a fresh one advances the link's
// version under the cell's writer lock, a stale one is turned away by the
// version check alone. Both run at 0 allocs/op.
func BenchmarkGossipApply(b *testing.B) {
	cl, err := New(Config{Topology: mustTopo(b, stubSpec), AntiEntropy: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	n := cl.Node(0) // link l, index 0, is b's: node a only sees it gossiped
	snapshot := func(version uint64) resv.Frame {
		return resv.Frame{Type: resv.MsgGossip, FlowID: version & keyMask, Value: 7}
	}
	b.Run("fresh", func(b *testing.B) {
		base := n.view.cells[0].version.Load()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.applyGossip(snapshot(base+uint64(i)+1), 1)
		}
	})
	b.Run("stale", func(b *testing.B) {
		n.applyGossip(snapshot(keyMask), 1)
		f := snapshot(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.applyGossip(f, 1)
		}
	})
}
