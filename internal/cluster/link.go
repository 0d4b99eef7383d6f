package cluster

import (
	"sync"
	"time"

	"beqos/internal/policy"
	"beqos/internal/resv"
)

// linkState is one locally-owned link: the admission policy that bounds it
// and the claim table that makes every admission releasable exactly once.
// The policy's CAS-bounded counters are the no-over-admit guarantee —
// concurrent claims (from this node's entry flows and from every peer
// forwarding hops here) race on the same atomics the single-link serving
// plane uses. The claim table is the bookkeeping around the decision:
// which hop keys hold slots, who owns them (an inbound peer connection, or
// this node's own entry plane), and when they expire.
type linkState struct {
	link  Link
	bound int
	pol   policy.Policy
	// needsClock mirrors resv's polClock: the default counting policy is
	// clockless and must not pay a time read per admission.
	needsClock bool
	// ttl is the claims' soft-state lifetime in nanoseconds, 0 for none.
	ttl int64

	mu     sync.Mutex
	claims resv.Table[*claim]
	wheel  *resv.Wheel[*claim] // TTL expiry index; nil without a TTL
}

// claim is one admitted hop on this link, keyed by its hop key. The table
// recycles claims, so the steady-state admit path allocates nothing.
type claim struct {
	slot  resv.Slot[*claim]
	owner *peerSess // inbound peer connection, nil for entry-local claims
	link  int32     // the link's global index, for the owner's release
	rate  float64
	timer resv.Timer[*claim]
}

func newLinkState(l Link, bound int, ttl time.Duration) (*linkState, error) {
	counting, err := policy.NewCounting(l.Capacity, bound)
	if err != nil {
		return nil, err
	}
	var pol policy.Policy = counting
	ls := &linkState{link: l, bound: bound, pol: pol, ttl: int64(ttl)}
	if cu, ok := pol.(policy.ClockUser); ok && cu.NeedsClock() {
		ls.needsClock = true
	}
	if ttl > 0 {
		ls.wheel = resv.NewWheel[*claim](resv.WheelRes(ttl), 0)
	}
	return ls, nil
}

func (ls *linkState) polNow(now int64) int64 {
	if ls.needsClock {
		return now
	}
	return 0
}

// admitStatus is admit's verdict beyond the policy's own decision.
type admitStatus int8

const (
	admitGranted admitStatus = iota
	admitDenied
	admitDuplicate
)

// admit claims one hop on the link: the policy decides (lock-free deny),
// the claim table records. A duplicate hop key rolls the policy claim back
// and leaves all state untouched — hop keys are minted per admission by
// entry nodes, so a duplicate is a protocol error, not a retransmit.
func (ls *linkState) admit(now int64, key uint64, rate float64, class uint8, owner *peerSess) (policy.Decision, admitStatus) {
	dec := ls.pol.Admit(ls.polNow(now), key, rate, class)
	if !dec.Admit {
		return dec, admitDenied
	}
	ls.mu.Lock()
	ok := ls.installLocked(now, key, rate, owner)
	ls.mu.Unlock()
	if !ok {
		ls.pol.Release(ls.polNow(now), rate)
		return dec, admitDuplicate
	}
	return dec, admitGranted
}

// admitN claims one run of batched hops on the link — identical rate and
// class, distinct hop keys — with a single vectored policy claim and one
// claim-table pass. The policy grants a prefix (exact at the kmax
// boundary); installed ops get their bit set in verdict at base+i. A
// duplicate hop key inside the granted prefix returns its single policy
// claim and keeps its bit clear, exactly like the unbatched duplicate
// path.
func (ls *linkState) admitN(now int64, frames []resv.Frame, owner *peerSess, base int, verdict *resv.BatchVerdict) (installed int, dec policy.Decision) {
	rate, class := frames[0].Value, frames[0].Class
	pnow := ls.polNow(now)
	granted, dec := policy.AdmitBatch(ls.pol, pnow, frames[0].FlowID&keyMask, rate, class, len(frames))
	if granted == 0 {
		return 0, dec
	}
	ls.mu.Lock()
	for i := 0; i < granted; i++ {
		if !ls.installLocked(now, frames[i].FlowID&keyMask, rate, owner) {
			ls.pol.Release(pnow, rate)
			continue
		}
		*verdict |= 1 << uint(base+i)
		installed++
	}
	ls.mu.Unlock()
	return installed, dec
}

// installLocked records an admitted hop, due to expire one TTL after now.
// It reports false, leaving all state untouched, when the key already
// holds a claim. Caller holds ls.mu.
func (ls *linkState) installLocked(now int64, key uint64, rate float64, owner *peerSess) bool {
	if ls.claims.Get(key) != nil {
		return false
	}
	c := ls.claims.Reuse()
	if c == nil {
		c = new(claim)
	}
	c.owner, c.link, c.rate = owner, int32(ls.link.Index), rate
	ls.claims.Insert(&c.slot, key, c)
	if ls.wheel != nil {
		ls.wheel.Schedule(&c.timer, c, now+ls.ttl)
	}
	if owner != nil {
		owner.mu.Lock()
		owner.claims.Push(&c.slot)
		owner.mu.Unlock()
	}
	return true
}

// dropLocked unrecords a claim — table, wheel, owning session — and
// returns its slot to the policy. Caller holds ls.mu.
func (ls *linkState) dropLocked(now int64, c *claim) {
	c.timer.Stop()
	ls.claims.Remove(&c.slot)
	if o := c.owner; o != nil {
		o.mu.Lock()
		o.claims.Remove(&c.slot)
		o.mu.Unlock()
	}
	ls.pol.Release(ls.polNow(now), c.rate)
	c.owner = nil
}

// release returns the hop's claim to the policy. It reports false when no
// claim holds the key — already released, expired, or never admitted — so
// every racing release path (teardown, rollback, connection drop, TTL)
// composes to exactly one policy release per admission.
func (ls *linkState) release(now int64, key uint64) bool {
	ls.mu.Lock()
	c := ls.claims.Get(key)
	if c != nil {
		ls.dropLocked(now, c)
	}
	ls.mu.Unlock()
	return c != nil
}

// refresh renews the claim for one TTL from now; it reports whether the
// claim lives.
func (ls *linkState) refresh(now int64, key uint64) bool {
	ls.mu.Lock()
	c := ls.claims.Get(key)
	if c != nil && ls.wheel != nil {
		ls.wheel.Schedule(&c.timer, c, now+ls.ttl)
	}
	ls.mu.Unlock()
	return c != nil
}

// expire releases every claim the wheel reports due at now and returns how
// many went: work proportional to the claims expiring, not to the table.
func (ls *linkState) expire(now int64) int {
	if ls.wheel == nil {
		return 0
	}
	n := 0
	ls.mu.Lock()
	ls.wheel.Advance(now, func(c *claim) {
		ls.dropLocked(now, c)
		n++
	})
	ls.mu.Unlock()
	return n
}

// peerSess lists the claims an inbound peer connection owns, across all
// local links, so dropping the connection (a crashed or partitioned entry
// node) releases them without waiting for their TTL. It is also the
// connection's resv.Handler on the peer plane.
type peerSess struct {
	n *Node
	// mu guards claims; a claim joins and leaves it under its link's lock,
	// taken first.
	mu     sync.Mutex
	claims resv.List[*claim]
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

// drain releases every claim the session still owns, front of its list
// first, each by its wire hop ID (linkIdx<<48 | hopKey). The connection is
// gone, so nothing joins the list; each pass takes the front claim off it,
// here or — when the claim expired after the front was read — in the
// expiry step.
func (p *peerSess) drain(now int64) {
	for {
		p.mu.Lock()
		c := p.claims.Front()
		var wireID uint64
		if c != nil {
			wireID = uint64(c.link)<<idxShift | c.slot.Key()
		}
		p.mu.Unlock()
		if c == nil {
			return
		}
		p.n.byGlobal[wireID>>idxShift].release(now, wireID&keyMask)
	}
}
