package resv

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"beqos/internal/policy"
)

// The admission cell: the one composition of a lock, a Table, a Wheel and
// an admission policy. Every plane that admits or records soft state is
// built from cells: the resv server stripes its flows over N cells sharing
// one policy, a cluster link is one cell with its own policy, and a
// cluster client connection keeps its path flows in a cell with no policy.
// Each record is a Hold: its slot in the table and on its owner's list, its
// timer in the wheel, the rate it claimed, and the plane's own fields.
//
// A cell reads no clock. Every method that arms a timer, expires holds or
// calls the policy takes its instant, now, from its caller: nanoseconds on
// the plane's clock (Lifecycle.Now), read once per read, datagram, tick or
// connection release.
//
// Drop is the one release funnel. It is the only code that stops a hold's
// timer, takes it out of its table and off its owner's list, and returns
// its claim to the policy. Teardown, rollback, expiry and owner drains all
// reach it under the cell's lock, where the table's Remove decides which
// of them releases the hold, so a claim goes back exactly once however
// they race. (A claim whose key was already held never becomes a hold: the
// admit path that made it returns it at once.)
//
// The cell's lock is the only lock an operation takes. The cells that
// share owners form a group — a resv server's shards, a cluster node's
// local links — and each cell has an index in it; an Owner keeps one list
// per cell, and list i is touched only under cell i's lock.
//
// The answer paths lock through the caller's Locked cursor, which holds at
// most one cell's lock at a time: a stream connection's handler keeps one
// across a read, so consecutive frames on one cell take its lock once.

// Hold is one record in a Cell. The cell allocates, recycles and reaches
// holds through their slot and timer back-pointers, so one generic body
// serves every plane with no method on the plane's type.
type Hold[P any] struct {
	slot  Slot[*Hold[P]]
	owner *Owner[P]
	rate  float64 // the rate claimed from the cell's policy
	timer Timer[*Hold[P]]
	// Val is the plane's own fields: a resv flow's connection, a path
	// flow's hops (a cluster link's claims have none). Drop clears it.
	Val P
}

// Owner lists holds to be released together when their owner goes away: a
// resv connection's flows, a cluster peer session's claims. It keeps one
// list per cell of its group, and list i is guarded by cell i's lock, so
// an Owner has no lock of its own. Size it with Init before its first
// hold; the zero Owner is empty. An Owner must not be copied once used.
type Owner[P any] struct {
	lists []List[*Hold[P]]
	// live counts the non-empty lists. It changes only when a list goes
	// empty or non-empty, so most installs and drops never touch it.
	live atomic.Int32
}

// Init gives o one list for each of the n cells of its group.
func (o *Owner[P]) Init(n int) { o.lists = make([]List[*Hold[P]], n) }

// Empty reports whether o owns no holds. It takes no lock: an install
// still in progress in another cell may not show yet.
func (o *Owner[P]) Empty() bool { return o.live.Load() == 0 }

// push lists s on o's list for cell i. The caller holds cell i's lock.
func (o *Owner[P]) push(i int, s *Slot[*Hold[P]]) {
	l := &o.lists[i]
	if l.Empty() {
		o.live.Add(1)
	}
	l.Push(s)
}

// remove takes s off o's list for cell i and reports whether that left o
// empty. The caller holds cell i's lock.
func (o *Owner[P]) remove(i int, s *Slot[*Hold[P]]) bool {
	l := &o.lists[i]
	l.Remove(s)
	return l.Empty() && o.live.Add(-1) == 0
}

// Drain drops every hold o owns, one cell at a time — lock cell i, drop
// o's list there, unlock — and returns how many it dropped. cell names
// cell i of o's group. o must gain no holds meanwhile — its connection is
// gone — so the pass stops once o is empty.
func (o *Owner[P]) Drain(now int64, cell func(i int) *Cell[P]) int {
	n := 0
	for i := range o.lists {
		if o.Empty() {
			break
		}
		c, l := cell(i), &o.lists[i]
		c.Lock()
		for h := l.Front(); h != nil; h = l.Front() {
			c.Drop(now, h)
			n++
		}
		c.Unlock()
	}
	return n
}

// Cell is one lock over one table of holds, with a TTL wheel when its
// holds expire and a policy when they claim admission slots. Set a cell up
// with Init; do not copy it after.
//
// Reserve, Answer, Release, Refresh and Owned, like AdmitRun and
// AnswerBatch, lock the cell through the caller's Locked cursor and leave
// it locked there. Advance and Owner.Drain take the cell's lock
// themselves. Get, Insert, Arm, Drop, Each and Len are for a plane that
// must keep its own state consistent with the table (a connection's closed
// flag, a pending path flow): it calls them between Lock and Unlock.
type Cell[P any] struct {
	sync.Mutex
	// idx is the cell's index in its group: the list its holds go on in
	// their owners.
	idx   int
	holds Table[*Hold[P]]
	wheel *Wheel[*Hold[P]] // nil without a TTL
	ttl   int64
	pol   policy.Policy // nil for a cell that only records
	// rates records that pol accounts rates (policy.ModeBandwidth): a
	// reserve must then carry a positive rate, and a batch reply no share.
	rates bool
}

// Init sets c up as cell i of its group (0 for a cell in none): pol, if
// non-nil, decides its admissions, and with ttl > 0 a hold expires one ttl
// after it is armed, on a wheel that starts at start, the plane's instant
// now.
func (c *Cell[P]) Init(i int, pol policy.Policy, ttl time.Duration, start int64) {
	c.idx, c.pol, c.ttl = i, pol, int64(ttl)
	c.rates = pol != nil && pol.Mode() == policy.ModeBandwidth
	if ttl > 0 {
		c.wheel = NewWheel[*Hold[P]](WheelRes(ttl), start)
	}
}

// Policy returns the cell's admission policy, nil for none.
func (c *Cell[P]) Policy() policy.Policy { return c.pol }

// Len returns the number of holds in c. The caller holds c's lock.
func (c *Cell[P]) Len() int { return c.holds.Len() }

// Get returns the hold under key, or nil. The caller holds c's lock.
func (c *Cell[P]) Get(key uint64) *Hold[P] { return c.holds.Get(key) }

// Each calls f on every hold in c; f may Drop the hold it is given, and no
// other. The caller holds c's lock.
func (c *Cell[P]) Each(f func(*Hold[P])) { c.holds.Each(f) }

// Insert adds a hold under key, owned by o (nil for none) and claiming
// rate, with its timer not armed. The caller holds c's lock and has checked
// that key is free.
func (c *Cell[P]) Insert(key uint64, o *Owner[P], rate float64, val P) *Hold[P] {
	h := c.holds.Reuse()
	if h == nil {
		h = new(Hold[P])
	}
	h.Val, h.owner, h.rate = val, o, rate
	c.holds.Insert(&h.slot, key, h)
	if o != nil {
		o.push(c.idx, &h.slot)
	}
	return h
}

// Arm sets h to expire one TTL after now, re-arming a running timer; it
// does nothing without a TTL. The caller holds c's lock.
func (c *Cell[P]) Arm(now int64, h *Hold[P]) {
	if c.wheel != nil {
		c.wheel.Schedule(&h.timer, h, now+c.ttl)
	}
}

// Drop is the release funnel: it stops h's timer, takes h out of the table
// and off its owner's list, and returns its claim to the policy. It reports
// whether h was its owner's last hold. The caller holds c's lock.
func (c *Cell[P]) Drop(now int64, h *Hold[P]) (ownerEmpty bool) {
	h.timer.Stop()
	c.holds.Remove(&h.slot)
	if o := h.owner; o != nil {
		ownerEmpty = o.remove(c.idx, &h.slot)
		h.owner = nil
	}
	if c.pol != nil {
		c.pol.Release(now, h.rate)
	}
	var zero P
	h.Val = zero
	return ownerEmpty
}

// Locked is a lock cursor: it holds at most one cell's lock at a time.
// The answer paths lock their cells through it, and moving it to another
// cell releases the one it held, so consecutive ops on one cell share one
// lock hold and no two cell locks are ever held together. Its holder ends
// the hold with Unlock: a stream connection's handler when its read is
// served, any other caller after each call. Nothing that can block — a
// write, a log line, a hop forwarded to a peer — may run while it holds a
// lock. The zero Locked holds none.
type Locked struct{ mu *sync.Mutex }

// Lock makes mu, a cell's lock, the one l holds, releasing the one l held
// if it is another. It is small enough to inline: an op on the cell l
// already holds costs a compare.
func (l *Locked) Lock(mu *sync.Mutex) {
	if l.mu != mu {
		l.move(mu)
	}
}

// move releases the lock l holds, if any, and takes mu.
func (l *Locked) move(mu *sync.Mutex) {
	if l.mu != nil {
		l.mu.Unlock()
	}
	l.mu = mu
	mu.Lock()
}

// Unlock releases the lock l holds, if any.
func (l *Locked) Unlock() {
	if l.mu != nil {
		l.mu.Unlock()
		l.mu = nil
	}
}

// Outcome is what one admission on a cell came to.
type Outcome int8

const (
	// Granted: the policy granted the claim and the hold is installed.
	Granted Outcome = iota
	// Denied: the policy refused the claim.
	Denied
	// Held: the key is already held. The claim went back to the policy and
	// nothing changed.
	Held
	// Refused: the request's rate is one no reserve may carry (badRate).
	// The policy never saw it.
	Refused
)

// AdmitRun admits a run of identical requests — one rate and class, keys
// run[i].FlowID&mask — on cells sharing one policy, each op in the cell
// cellOf names for its flow ID, as Reserve admits each op but with one
// vectored policy claim per pass. The policy grants a prefix of the run;
// each granted op installs through lk, or returns its claim when its key
// is held. A pass that returned claims freed slots the ops past its prefix
// would have been granted had they been sent singly, so the rest of the
// run is admitted again: a run answers exactly as its ops sent one at a
// time. Op i sets bit base+i of granted when it installed, and of held
// when its key was held. The Decision carries the share of the last pass
// that granted and the load the last pass observed.
func AdmitRun[P any](cellOf func(id uint64) *Cell[P], lk *Locked, now int64, run []Frame, mask uint64, o *Owner[P], val P, base int, granted, held *BatchVerdict) (dec policy.Decision) {
	pol := cellOf(run[0].FlowID).pol
	rate, class := run[0].Value, run[0].Class
	for i := 0; i < len(run); {
		n, d := pol.AdmitN(now, rate, class, len(run)-i)
		dec.Load = d.Load
		if n == 0 {
			break
		}
		dec.Admit, dec.Share = true, d.Share
		returned := 0
		for end := i + n; i < end; i++ {
			key := run[i].FlowID & mask
			c := cellOf(run[i].FlowID)
			lk.Lock(&c.Mutex)
			if c.holds.Get(key) != nil {
				returned++
				*held |= 1 << uint(base+i)
				continue
			}
			c.Arm(now, c.Insert(key, o, rate, val))
			*granted |= 1 << uint(base+i)
		}
		if returned == 0 {
			break
		}
		pol.ReleaseN(now, rate, returned)
	}
	return dec
}

// Release drops the hold under key if o owns it (nil: if it has no owner)
// and reports whether one went. It locks c through lk.
func (c *Cell[P]) Release(lk *Locked, now int64, key uint64, o *Owner[P]) bool {
	lk.Lock(&c.Mutex)
	h := c.holds.Get(key)
	ok := h != nil && h.owner == o
	if ok {
		c.Drop(now, h)
	}
	return ok
}

// Refresh re-arms the hold under key one TTL after now if o owns it (nil:
// if it has no owner) and reports whether it lives. It locks c through lk.
func (c *Cell[P]) Refresh(lk *Locked, now int64, key uint64, o *Owner[P]) bool {
	lk.Lock(&c.Mutex)
	h := c.holds.Get(key)
	ok := h != nil && h.owner == o
	if ok {
		c.Arm(now, h)
	}
	return ok
}

// Owned reports whether o holds key, and the rate its hold claimed. It
// locks c through lk.
func (c *Cell[P]) Owned(lk *Locked, key uint64, o *Owner[P]) (rate float64, ok bool) {
	lk.Lock(&c.Mutex)
	if h := c.holds.Get(key); h != nil && h.owner == o {
		rate, ok = h.rate, true
	}
	return rate, ok
}

// Advance drops every hold whose timer is due at now, calls gone (if
// non-nil) on each with the cell locked — with whether it was its owner's
// last hold — and returns how many went: work proportional to the holds
// expiring, never a scan of the table. Without a TTL it does nothing.
func (c *Cell[P]) Advance(now int64, gone func(key uint64, val P, ownerEmpty bool)) int {
	if c.wheel == nil {
		return 0
	}
	n := 0
	c.Lock()
	c.wheel.Advance(now, func(h *Hold[P]) {
		key, val := h.slot.key, h.Val
		last := c.Drop(now, h)
		n++
		if gone != nil {
			gone(key, val, last)
		}
	})
	c.Unlock()
	return n
}

// The link answer: a reservation-capable link's reply to each frame, given
// from its cells. The single-link server answers for its shards and a
// cluster node's peer plane for its links, so both planes give one answer.
// A frame's key is its FlowID&mask; only the key's owner o may tear its
// hold down or refresh it.

// badRate reports a requested rate no reserve may carry: negative, NaN or
// infinite, or — under a policy that accounts rates — not positive.
func (c *Cell[P]) badRate(v float64) bool {
	return !(v >= 0) || math.IsInf(v, 0) || (c.rates && !(v > 0))
}

// Reserve answers a reserve f for o. It claims one slot from the policy
// and installs a hold under key f.FlowID&mask, owned by o (nil for none),
// claiming f.Value and armed one TTL after now. The policy decides before
// c is locked through lk, so a full cell denies without taking a lock lk
// does not already hold. The reply is ERROR bad-request for a bad rate
// (Refused), GRANT with the policy's share, DENY with the load the policy
// saw, or ERROR duplicate-flow when the key is already held (Held): the
// claim goes back. In count mode the share is the guaranteed worst case
// C/kmax, since the instantaneous C/min(k, kmax) would be stale the moment
// another flow is admitted; in bandwidth mode it is the requested rate.
func (c *Cell[P]) Reserve(lk *Locked, now int64, f Frame, mask uint64, o *Owner[P], val P) (Frame, Outcome) {
	if c.badRate(f.Value) {
		return errorReply(f, ErrCodeBadRequest), Refused
	}
	key := f.FlowID & mask
	dec := c.pol.Admit(now, key, f.Value, f.Class)
	if !dec.Admit {
		return Frame{Type: MsgDeny, FlowID: f.FlowID, Value: dec.Load}, Denied
	}
	lk.Lock(&c.Mutex)
	if c.holds.Get(key) != nil {
		c.pol.Release(now, f.Value)
		return errorReply(f, ErrCodeDuplicateFlow), Held
	}
	c.Arm(now, c.Insert(key, o, f.Value, val))
	return Frame{Type: MsgGrant, FlowID: f.FlowID, Value: dec.Share}, Granted
}

// Answer answers a reserve as Reserve does, a teardown with TEARDOWN-OK
// and the policy's active count, and a refresh with REFRESH-OK and the TTL
// in seconds; a teardown or refresh of a key o does not hold gets ERROR
// unknown-flow, and any other frame ERROR bad-request. It locks c through
// lk.
func (c *Cell[P]) Answer(lk *Locked, now int64, f Frame, mask uint64, o *Owner[P], val P) Frame {
	switch key := f.FlowID & mask; f.Type {
	case MsgTeardown:
		if c.Release(lk, now, key, o) {
			return Frame{Type: MsgTeardownOK, FlowID: f.FlowID, Value: float64(c.pol.Active())}
		}
	case MsgRefresh:
		if c.Refresh(lk, now, key, o) {
			return Frame{Type: MsgRefreshOK, FlowID: f.FlowID, Value: time.Duration(c.ttl).Seconds()}
		}
	case MsgRequest:
		reply, _ := c.Reserve(lk, now, f, mask, o, val)
		return reply
	default:
		return errorReply(f, ErrCodeBadRequest)
	}
	return errorReply(f, ErrCodeUnknownFlow)
}

// AnswerBatch answers one MsgReserveBatch body for o on the cells cellOf
// names by flow ID (nil for an ID no cell serves), in body order, locking
// them through lk: a teardown releases as Answer's does, and each run of
// consecutive requests with one rate and class, on cells sharing one
// policy, goes through one AdmitRun, so the body answers exactly as its
// ops sent singly. Flow IDs that agree outside mask must name cells
// sharing one policy (or none): a run breaks where they do not agree. Bit
// i of the reply's verdict reports op i, and of errs that op i failed as
// an error (a bad rate, a held key, an unknown flow or cell), not a
// denial. The reply's Value is the smallest share granted: 0 when none
// was, and under a policy that accounts rates.
func AnswerBatch[P any](cellOf func(id uint64) *Cell[P], lk *Locked, now int64, ops []Frame, mask uint64, o *Owner[P], val P) (reply Frame, errs BatchVerdict) {
	var verdict BatchVerdict
	share := math.MaxFloat64
	for i := 0; i < len(ops); {
		f, c := ops[i], cellOf(ops[i].FlowID)
		if f.Type == MsgTeardown {
			if c != nil && c.Release(lk, now, f.FlowID&mask, o) {
				verdict |= 1 << uint(i)
			} else {
				errs |= 1 << uint(i)
			}
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && ops[j].Type == MsgRequest && ops[j].Value == f.Value && ops[j].Class == f.Class && (ops[j].FlowID^f.FlowID)&^mask == 0 {
			j++
		}
		if c == nil || c.badRate(f.Value) {
			errs |= (BatchVerdict(1)<<uint(j-i) - 1) << uint(i)
		} else {
			var granted BatchVerdict
			dec := AdmitRun(cellOf, lk, now, ops[i:j], mask, o, val, i, &granted, &errs)
			verdict |= granted
			if granted != 0 && !c.rates && dec.Share < share {
				share = dec.Share
			}
		}
		i = j
	}
	if share == math.MaxFloat64 {
		share = 0
	}
	return Frame{Type: MsgReserveBatchReply, FlowID: uint64(verdict), Value: share}, errs
}
