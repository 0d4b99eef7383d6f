package cluster

import (
	"net"
	"runtime"
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
	return wireExpiryCluster(t, func(owner *Node, nc net.Conn) { go owner.HandlePeerConn(nc) })
}

// wireExpiryCluster is newExpiryCluster with the owner's end of the pipe
// handed to serve.
func wireExpiryCluster(t *testing.T, serve func(owner *Node, nc net.Conn)) (entry, owner *Node, g int) {
	t.Helper()
	topo := mustTopo(t, expirySpec)
	cl, err := New(Config{Topology: topo, TTL: expiryTTL, AntiEntropy: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	entry, owner = cl.Node(topo.NodeIndex("entry")), cl.Node(topo.NodeIndex("owner"))
	a, b := net.Pipe()
	entry.connectPeer(owner.idx, a)
	serve(owner, b)
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

	t0 := owner.lc.Now()
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
	if !sess.claims.Empty() {
		t.Fatal("session still tracks expired claims")
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

	t0 := entry.lc.Now()
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

// TestRefreshOfLostHopRollsBack checks that a path refresh answers for
// every hop: once the owner's claim is gone — expired there, or the owner
// closed — the entry answers unknown-flow, counts the error and rolls the
// path back, so its own-claim count comes down and a teardown finds
// nothing left to release.
func TestRefreshOfLostHopRollsBack(t *testing.T) {
	for _, lose := range []struct {
		name string
		hop  func(owner *Node)
	}{
		{"expired", func(owner *Node) { owner.expire(owner.lc.Now() + 2*int64(expiryTTL)) }},
		{"closed", func(owner *Node) { owner.Close() }},
	} {
		t.Run(lose.name, func(t *testing.T) {
			entry, owner, g := newExpiryCluster(t)
			l := entry.NewLocal()
			defer l.Close()
			if ok, _, err := l.Reserve(0, 1, 1); !ok || err != nil {
				t.Fatalf("reserve: granted %v, err %v", ok, err)
			}
			if own := entry.own[g].Load(); own != 1 {
				t.Fatalf("entry counts %d own claims on the link, want 1", own)
			}
			lose.hop(owner)
			errs := entry.Metrics().Errors.Load()
			if err := l.Refresh(0, 1); err == nil {
				t.Fatal("refresh answered REFRESH-OK for a path whose hop is gone")
			}
			if n := entry.Metrics().Errors.Load() - errs; n != 1 {
				t.Fatalf("refresh counted %d errors, want 1", n)
			}
			l.c.flows.Lock()
			flows := l.c.flows.Len()
			l.c.flows.Unlock()
			if own := entry.own[g].Load(); own != 0 || flows != 0 {
				t.Fatalf("after the failed refresh: %d own claims and %d path flows held, want 0 and 0", own, flows)
			}
			if err := l.Teardown(0, 1); err == nil {
				t.Fatal("teardown found the rolled-back path still held")
			}
		})
	}
}

// gatedPeer serves an owner's peer plane but holds its answer to a
// refresh: it closes refreshed when the refresh arrives, then waits for
// gate.
type gatedPeer struct {
	*peerSess
	refreshed, gate chan struct{}
}

func (s *gatedPeer) Serve(f resv.Frame, now int64) resv.Frame {
	if f.Type == resv.MsgRefresh {
		close(s.refreshed)
		<-s.gate
	}
	return s.peerSess.Serve(f, now)
}

// TestRefreshRacingTeardownReleasesOnce tears a path down while its
// refresh waits on the owner, whose claim has expired: the teardown drops
// the path flow and releases its hops, so the failed refresh must release
// nothing more, and the entry's own-claim count ends at zero, not below.
func TestRefreshRacingTeardownReleasesOnce(t *testing.T) {
	var peer *gatedPeer
	entry, owner, g := wireExpiryCluster(t, func(owner *Node, nc net.Conn) {
		peer = &gatedPeer{newPeerSess(owner), make(chan struct{}), make(chan struct{})}
		go owner.lc.Serve(nc, peer, func(error) {})
	})
	l := entry.NewLocal()
	defer l.Close()
	if ok, _, err := l.Reserve(0, 1, 1); !ok || err != nil {
		t.Fatalf("reserve: granted %v, err %v", ok, err)
	}
	owner.expire(owner.lc.Now() + 2*int64(expiryTTL))
	refreshed, tornDown := make(chan error, 1), make(chan error, 1)
	go func() { refreshed <- l.Refresh(0, 1) }()
	<-peer.refreshed
	go func() { tornDown <- l.Teardown(0, 1) }()
	for deadline := time.Now().Add(5 * time.Second); entry.own[g].Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the teardown never released its hop")
		}
		runtime.Gosched()
	}
	close(peer.gate)
	if err := <-refreshed; err == nil {
		t.Fatal("refresh answered REFRESH-OK for a path whose hop is gone")
	}
	if err := <-tornDown; err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if own := entry.own[g].Load(); own != 0 {
		t.Fatalf("entry counts %d own claims after the race, want 0", own)
	}
}
