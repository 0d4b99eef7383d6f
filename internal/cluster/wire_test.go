package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"beqos/internal/resv"
)

// singleSpec makes a one-node, one-link cluster — semantically a single
// resv server, so stock clients (whose FlowIDs have empty top bits and
// therefore address pair 0) speak to it unchanged.
const singleSpec = "node a\nlink l a 8\npath p l\npair x a a p\n"

func serveWire(t *testing.T, n *Node) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() { _ = n.ServeClients(ln) }()
	return ln.Addr().String()
}

// TestWireStockClient drives a cluster node's client plane with the
// unmodified resv mux client: grants up to the path bound, denies past it,
// cluster stats, refresh, teardown — the whole wire surface.
func TestWireStockClient(t *testing.T) {
	cl := startCluster(t, singleSpec, Config{})
	addr := serveWire(t, cl.Node(0))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mc, err := resv.Dial(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mc.Close() }()

	bound := cl.Bounds()[0]
	for i := 0; i < bound; i++ {
		granted, share, err := mc.Reserve(ctx, uint64(i), 1)
		if err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		if !granted || !(share > 0) {
			t.Fatalf("reserve %d: granted=%v share=%g", i, granted, share)
		}
	}
	granted, _, err := mc.Reserve(ctx, uint64(bound), 1)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("reserve past the path bound granted")
	}
	kmax, active, err := mc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if kmax != bound || active != bound {
		t.Fatalf("stats = (%d, %d), want (%d, %d)", kmax, active, bound, bound)
	}
	if _, err := mc.Refresh(ctx, 0); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if err := mc.Teardown(ctx, 0); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if err := mc.Teardown(ctx, 0); err == nil {
		t.Fatal("duplicate teardown succeeded")
	}
	if a := cl.Node(0).LinkActive(0); a != int64(bound-1) {
		t.Fatalf("link holds %d claims, want %d", a, bound-1)
	}
}

// TestWireConnDropRollsBack: a client connection that disappears takes its
// path reservations with it, exactly like the single-link serving plane.
func TestWireConnDropRollsBack(t *testing.T) {
	cl := startCluster(t, singleSpec, Config{})
	addr := serveWire(t, cl.Node(0))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mc, err := resv.Dial(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		granted, _, err := mc.Reserve(ctx, uint64(i), 1)
		if err != nil || !granted {
			t.Fatalf("reserve %d: granted=%v err=%v", i, granted, err)
		}
	}
	if a := cl.Node(0).LinkActive(0); a != 4 {
		t.Fatalf("link holds %d claims, want 4", a)
	}
	_ = mc.Close()
	waitFor(t, "connection-drop rollback", func() bool {
		return cl.Node(0).LinkActive(0) == 0
	})
}

// TestWireMultiNodeEntry: clients on different nodes of one cluster share
// the same admission state — a pair's bound binds across entry points.
func TestWireMultiNodeEntry(t *testing.T) {
	cl := startCluster(t, sharedSpec, Config{})
	topo := cl.topo
	shIdx := topo.LinkIndex("shared")
	bound := cl.Bounds()[shIdx]

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mcA, err := resv.Dial(ctx, "tcp", serveWire(t, cl.Node(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mcA.Close() }()
	mcB, err := resv.Dial(ctx, "tcp", serveWire(t, cl.Node(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mcB.Close() }()

	grants := 0
	for i := 0; i < bound; i++ {
		// Alternate entry nodes; pair index rides the FlowID top bits.
		var granted bool
		var err error
		if i%2 == 0 {
			granted, _, err = mcA.Reserve(ctx, FlowID(0, uint64(i)), 1)
		} else {
			granted, _, err = mcB.Reserve(ctx, FlowID(1, uint64(i)), 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if granted {
			grants++
		}
	}
	if grants != bound {
		t.Fatalf("granted %d, want the full shared bound %d", grants, bound)
	}
	granted, _, err := mcA.Reserve(ctx, FlowID(0, 1000), 1)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("grant past the shared bound via a second entry node")
	}
}

// TestPeerHopsSessionScoped checks that a hop claim answers to the peer
// session that made it alone. A teardown or refresh of its key on another
// session, single or in a batch body, gets unknown-flow and leaves the
// claim held; the claiming session's refresh and teardown work.
func TestPeerHopsSessionScoped(t *testing.T) {
	n := startCluster(t, singleSpec, Config{AntiEntropy: -1}).Node(0)
	own, other := diffConn(t, n.HandlePeerConn), diffConn(t, n.HandlePeerConn)
	const key = 1<<entryShift | 7 // entry node 1's hop 7, on link 0
	hop := func(typ resv.MsgType) resv.Frame { return resv.Frame{Type: typ, FlowID: key, Value: 1} }
	expect := func(nc net.Conn, frames []resv.Frame, want resv.Frame) {
		t.Helper()
		if r := diffRoundTrip(t, nc, frames); !sameFrame(r, want) {
			t.Fatalf("%v: reply %+v, want %+v", frames, r, want)
		}
	}
	unknown := resv.Frame{Type: resv.MsgError, FlowID: key, Value: float64(resv.ErrCodeUnknownFlow)}

	expect(own, []resv.Frame{hop(resv.MsgRequest)}, resv.Frame{Type: resv.MsgGrant, FlowID: key, Value: 1})
	expect(other, []resv.Frame{hop(resv.MsgTeardown)}, unknown)
	expect(other, []resv.Frame{hop(resv.MsgRefresh)}, unknown)
	expect(other, []resv.Frame{resv.BatchHeader(1), hop(resv.MsgTeardown)}, resv.Frame{Type: resv.MsgReserveBatchReply})
	diffNothingFollows(t, other)
	if a := n.LinkActive(0); a != 1 {
		t.Fatalf("another session's teardowns left %d claims, want the 1 it did not make", a)
	}
	expect(own, []resv.Frame{hop(resv.MsgRefresh)}, resv.Frame{Type: resv.MsgRefreshOK, FlowID: key})
	expect(own, []resv.Frame{hop(resv.MsgTeardown)}, resv.Frame{Type: resv.MsgTeardownOK, FlowID: key})
	if a := n.LinkActive(0); a != 0 {
		t.Fatalf("the claiming session's teardown left %d claims", a)
	}
}

// TestPeerTeardownOfExpiredClaimNoError: an entry's teardown of a hop
// whose claim the owner already expired answers unknown-flow, the
// release-once outcome, and is no protocol error whether it travels as a
// lone frame or in a batch body: cluster_errors_total reads 0 after each.
func TestPeerTeardownOfExpiredClaimNoError(t *testing.T) {
	cl, err := New(Config{Topology: mustTopo(t, singleSpec), TTL: expiryTTL, AntiEntropy: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	n := cl.Node(0)
	nc := diffConn(t, n.HandlePeerConn)
	for i, body := range []bool{false, true} {
		key := uint64(1<<entryShift | i) // entry node 1's hop i, on link 0
		claim := resv.Frame{Type: resv.MsgRequest, FlowID: key, Value: 1}
		if r := diffRoundTrip(t, nc, []resv.Frame{claim}); r.Type != resv.MsgGrant {
			t.Fatalf("claim %d answered %+v", i, r)
		}
		n.expire(n.lc.Now() + int64(i+1)*2*int64(expiryTTL)) // past the last step
		if a := n.LinkActive(0); a != 0 {
			t.Fatalf("the expiry step left %d claims", a)
		}
		teardown := []resv.Frame{{Type: resv.MsgTeardown, FlowID: key}}
		want := resv.Frame{Type: resv.MsgError, FlowID: key, Value: float64(resv.ErrCodeUnknownFlow)}
		if body {
			teardown = append([]resv.Frame{resv.BatchHeader(1)}, teardown...)
			want = resv.Frame{Type: resv.MsgReserveBatchReply}
		}
		if r := diffRoundTrip(t, nc, teardown); !sameFrame(r, want) {
			t.Fatalf("teardown (body %v) answered %+v, want %+v", body, r, want)
		}
		if body {
			diffNothingFollows(t, nc)
		}
		if e := n.Metrics().Errors.Load(); e != 0 {
			t.Fatalf("teardown of an expired claim (body %v): cluster_errors_total = %d, want 0", body, e)
		}
	}
}
