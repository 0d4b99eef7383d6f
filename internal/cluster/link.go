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
// the single-link serving plane uses. A claim holds its link's global
// index, so that its owning peer session can find the link on a drain;
// claims this node's entry plane makes have no owner.
type linkState struct {
	resv.Cell[int32]
	link Link
}

func newLinkState(l Link, bound int, ttl time.Duration, epoch time.Time) (*linkState, error) {
	pol, err := policy.NewCounting(l.Capacity, bound)
	if err != nil {
		return nil, err
	}
	ls := &linkState{link: l}
	ls.Init(pol, ttl, epoch)
	return ls, nil
}

// cell is the cell every hop key of the link lives in, for resv.AdmitRun.
func (ls *linkState) cell(uint64) *resv.Cell[int32] { return &ls.Cell }

// peerSess lists the claims an inbound peer connection owns, across all
// local links, so dropping the connection (a crashed or partitioned entry
// node) releases them without waiting for their TTL. It is also the
// connection's resv.Handler on the peer plane.
type peerSess struct {
	n      *Node
	claims resv.Owner[int32]
	// lastGossip is the last active count piggybacked on a batch reply to
	// this connection, per local link (indexed like Node.links, -1 = never
	// sent). Only the serving goroutine touches it, so no lock.
	lastGossip []int64
}

func newPeerSess(n *Node) *peerSess {
	s := &peerSess{n: n, lastGossip: make([]int64, len(n.links))}
	for i := range s.lastGossip {
		s.lastGossip[i] = -1
	}
	return s
}

// claimLink is the cell a peer session's claim lives in: its link's.
func (n *Node) claimLink(h *resv.Hold[int32]) *resv.Cell[int32] { return &n.byGlobal[h.Val].Cell }
