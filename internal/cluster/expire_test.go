package cluster

import (
	"net"
	"testing"
	"time"

	"beqos/internal/resv"
)

// expirySpec puts the only link on a node other than the entry, so an
// entry's path flow and the owner's claim for it live on different nodes.
const expirySpec = `
node entry
node owner
link l owner 8
path p l
pair x entry owner p
`

const expiryTTL = time.Second

// newExpiryCluster wires entry → owner over a pipe without starting either
// node's background loops: only the test advances their wheels.
func newExpiryCluster(t *testing.T) (entry, owner *Node, g int) {
	t.Helper()
	topo := mustTopo(t, expirySpec)
	cl, err := New(Config{Topology: topo, TTL: expiryTTL, AntiEntropy: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	entry, owner = cl.Node(topo.NodeIndex("entry")), cl.Node(topo.NodeIndex("owner"))
	a, b := net.Pipe()
	entry.connectPeer(owner.Index(), a)
	go owner.HandlePeerConn(b)
	t.Cleanup(cl.Close)
	return entry, owner, topo.LinkIndex("l")
}

// TestExpiryStepOwnerClaim drives the owner's expiry step with explicit
// clock values: a claim due at D is held at every now ≤ D and gone at the
// first step one wheel tick past D, a refresh one tick before D keeps it,
// and each expired claim counts once at the owner.
func TestExpiryStepOwnerClaim(t *testing.T) {
	_, owner, g := newExpiryCluster(t)
	res := int64(resv.WheelRes(expiryTTL))
	sess := newPeerSess(owner)
	hop := func(typ resv.MsgType, key uint64, now int64) {
		t.Helper()
		want := map[resv.MsgType]resv.MsgType{resv.MsgRequest: resv.MsgGrant, resv.MsgRefresh: resv.MsgRefreshOK}[typ]
		f := resv.Frame{Type: typ, FlowID: uint64(g)<<idxShift | key, Value: 1}
		if r := owner.dispatchPeer(sess, f, now); r.Type != want {
			t.Fatalf("%s key %d: reply %+v, want %s", typ, key, r, want)
		}
	}
	held := func(now int64, want int64) {
		t.Helper()
		owner.expire(now)
		if a := owner.LinkActive(g); a != want {
			t.Fatalf("after the expiry step at %d: %d claims held, want %d", now, a, want)
		}
	}

	t0 := owner.nowNanos()
	hop(resv.MsgRequest, 1, t0)
	hop(resv.MsgRequest, 2, t0)
	d := t0 + int64(expiryTTL)
	for _, now := range []int64{t0, t0 + int64(expiryTTL)/2, d - res, d - 1, d} {
		if now == d-res {
			hop(resv.MsgRefresh, 2, now)
		}
		held(now, 2)
	}
	held(d+res, 1) // key 1 is gone; the refreshed key 2 stays
	if n := owner.Metrics().Expiries.Load(); n != 1 {
		t.Fatalf("owner counted %d expiries, want 1", n)
	}
	d2 := d - res + int64(expiryTTL)
	held(d2, 1)
	held(d2+res, 0)
	if n := owner.Metrics().Expiries.Load(); n != 2 {
		t.Fatalf("owner counted %d expiries, want 2", n)
	}
	tracked := sess.claims.Len()
	if tracked != 0 {
		t.Fatalf("session still tracks %d expired claims", tracked)
	}
}

// TestExpiryStepEntryPathFlow is the same check for path flows at their
// entry node: an expired flow is rolled back end to end — the owner's claim
// is torn down over the peer plane — and counts once, at the entry.
func TestExpiryStepEntryPathFlow(t *testing.T) {
	entry, owner, g := newExpiryCluster(t)
	res := int64(resv.WheelRes(expiryTTL))
	l := entry.NewLocal()
	defer l.Close()
	send := func(typ resv.MsgType, seq uint64, now int64) {
		t.Helper()
		want := map[resv.MsgType]resv.MsgType{resv.MsgRequest: resv.MsgGrant, resv.MsgRefresh: resv.MsgRefreshOK}[typ]
		f := resv.Frame{Type: typ, FlowID: FlowID(0, seq), Value: 1}
		if r := entry.dispatchClient(l.c, f, now); r.Type != want {
			t.Fatalf("%s seq %d: reply %+v, want %s", typ, seq, r, want)
		}
	}
	held := func(now int64, want int) {
		t.Helper()
		entry.expire(now)
		l.c.flows.Lock()
		flows := l.c.flows.Len()
		l.c.flows.Unlock()
		if flows != want || owner.LinkActive(g) != int64(want) {
			t.Fatalf("after the expiry step at %d: %d path flows and %d owner claims held, want %d",
				now, flows, owner.LinkActive(g), want)
		}
	}

	t0 := entry.nowNanos()
	send(resv.MsgRequest, 1, t0)
	send(resv.MsgRequest, 2, t0)
	d := t0 + int64(expiryTTL)
	for _, now := range []int64{t0, t0 + int64(expiryTTL)/2, d - res, d - 1, d} {
		if now == d-res {
			send(resv.MsgRefresh, 2, now)
		}
		held(now, 2)
	}
	held(d+res, 1)
	d2 := d - res + int64(expiryTTL)
	held(d2, 1)
	held(d2+res, 0)
	if n := entry.Metrics().Expiries.Load(); n != 2 {
		t.Fatalf("entry counted %d expiries, want one per path flow (2)", n)
	}
	if n := owner.Metrics().Expiries.Load(); n != 0 {
		t.Fatalf("owner counted %d expiries; the entry's rollback released its claims", n)
	}
}
