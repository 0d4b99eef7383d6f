package cluster

import (
	"time"

	"beqos/internal/policy"
	"beqos/internal/resv"
)

// linkState is one locally-owned link: an admission cell whose policy
// bounds the link and whose holds are its claims, one per admitted hop,
// keyed by hop key. The policy's CAS-bounded counters are the
// no-over-admit guarantee — concurrent claims (from this node's entry
// flows and from every peer forwarding hops here) race on the same atomics
// the single-link serving plane uses. The node's local links are one
// group of cells, each at its index in Node.links; claims this node's
// entry plane makes have no owner.
type linkState struct {
	resv.Cell[struct{}]
	link Link
}

// newLinkState makes local link i of its node, whose clock reads start.
func newLinkState(i int, l Link, bound int, ttl time.Duration, start int64) (*linkState, error) {
	pol, err := policy.NewCounting(l.Capacity, bound)
	if err != nil {
		return nil, err
	}
	ls := &linkState{link: l}
	ls.Init(i, pol, ttl, start)
	return ls, nil
}

// peerSess lists the claims an inbound peer connection owns, one list per
// local link, so dropping the connection (a crashed or partitioned entry
// node) releases them without waiting for their TTL. It is also the
// connection's resv.Handler on the peer plane.
type peerSess struct {
	n      *Node
	claims resv.Owner[struct{}]
}

func newPeerSess(n *Node) *peerSess {
	s := &peerSess{n: n}
	s.claims.Init(len(n.links))
	return s
}

// linkCell is local link i's cell, for a peer session's drain.
func (n *Node) linkCell(i int) *resv.Cell[struct{}] { return &n.links[i].Cell }

// hopCell is the cell of the local link a peer-plane FlowID names
// (linkIdx<<48 | hopKey), nil when that link is out of range or owned
// elsewhere.
func (n *Node) hopCell(id uint64) *resv.Cell[struct{}] {
	if g := id >> idxShift; g < uint64(len(n.byGlobal)) && n.byGlobal[g] != nil {
		return &n.byGlobal[g].Cell
	}
	return nil
}
