package resv

import (
	"math"
	"sync"
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
// Drop is the one release funnel. It is the only code that stops a hold's
// timer, takes it out of its table and off its owner's list, and returns
// its claim to the policy. Teardown, rollback, expiry and owner drains all
// reach it under the cell's lock, where the table's Remove decides which
// of them releases the hold, so a claim goes back exactly once however
// they race. (A claim whose key was already held never becomes a hold: the
// admit path that made it returns it at once.) The lock order is cell,
// then owner.

// Hold is one record in a Cell. The cell allocates, recycles and reaches
// holds through their slot and timer back-pointers, so one generic body
// serves every plane with no method on the plane's type.
type Hold[P any] struct {
	slot  Slot[*Hold[P]]
	owner *Owner[P]
	rate  float64 // the rate claimed from the cell's policy
	timer Timer[*Hold[P]]
	// Val is the plane's own fields: a resv flow's connection, a cluster
	// claim's link, a path flow's hops. Drop clears it.
	Val P
}

// Owner lists holds to be released together when their owner goes away: a
// resv connection's flows, a cluster peer session's claims, across any
// number of cells. Its lock is taken after a cell's. The zero Owner is
// empty; an Owner must not be copied once used.
type Owner[P any] struct {
	mu    sync.Mutex
	holds List[*Hold[P]]
}

// Len returns the number of holds o owns.
func (o *Owner[P]) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.holds.Len()
}

// Drain drops every hold o owns, front of its list first, calls gone (if
// non-nil) on each with its cell locked, and returns how many it dropped.
// cellOf names the cell a hold lives in. o must gain no holds meanwhile —
// its connection is gone — so each pass takes the front hold off the list,
// here or, when an expiry beat the drain to it, in Advance.
func (o *Owner[P]) Drain(now int64, cellOf func(*Hold[P]) *Cell[P], gone func(key uint64, val P)) int {
	n := 0
	for {
		o.mu.Lock()
		h := o.holds.Front()
		var key uint64
		var c *Cell[P]
		if h != nil {
			key, c = h.slot.key, cellOf(h)
		}
		o.mu.Unlock()
		if h == nil {
			return n
		}
		c.Lock()
		if h = c.holds.Get(key); h != nil && h.owner == o {
			val := h.Val
			c.Drop(now, h)
			n++
			if gone != nil {
				gone(key, val)
			}
		}
		c.Unlock()
	}
}

// Cell is one lock over one table of holds, with a TTL wheel when its
// holds expire and a policy when they claim admission slots. Set a cell up
// with Init; do not copy it after.
//
// Admit, Release, Refresh, Owned and Advance take the cell's lock
// themselves, as do AdmitRun and Owner.Drain. Get, Insert, Arm, Drop, Each
// and Len are for a plane that must keep its own state consistent with the
// table (a connection's closed flag, a pending path flow): it calls them
// between Lock and Unlock.
type Cell[P any] struct {
	sync.Mutex
	holds Table[*Hold[P]]
	wheel *Wheel[*Hold[P]] // nil without a TTL
	ttl   int64
	pol   policy.Policy // nil for a cell that only records
	// clock records that pol implements policy.ClockUser and asked for the
	// clock. A clockless policy is handed 0, so a cell with no TTL never
	// uses the now its callers pass.
	clock bool
	// epoch is the origin of the cell's clock, in nanoseconds.
	epoch time.Time
}

// Now, passed to a cell method as its now, has the cell read its own clock
// at the moment it needs one, and not at all when it needs none. The read
// then follows the table lookup: on a table far beyond the cache, a clock
// read before the lookup made a refresh measurably slower. Every other now
// is the caller's instant on the same clock.
const Now int64 = math.MinInt64

// Init sets c up: pol, if non-nil, decides its admissions, and with ttl > 0
// a hold expires one ttl after it is armed. The cell's clock counts
// nanoseconds since epoch.
func (c *Cell[P]) Init(pol policy.Policy, ttl time.Duration, epoch time.Time) {
	c.pol, c.ttl, c.epoch = pol, int64(ttl), epoch
	if cu, ok := pol.(policy.ClockUser); ok && cu.NeedsClock() {
		c.clock = true
	}
	if ttl > 0 {
		c.wheel = NewWheel[*Hold[P]](WheelRes(ttl), c.at(Now))
	}
}

// Policy returns the cell's admission policy, nil for none.
func (c *Cell[P]) Policy() policy.Policy { return c.pol }

// at resolves a now argument: the caller's instant, or for Now the cell's
// clock read this moment.
func (c *Cell[P]) at(now int64) int64 {
	if now == Now {
		return int64(time.Since(c.epoch))
	}
	return now
}

// polNow is the clock handed to the policy.
func (c *Cell[P]) polNow(now int64) int64 {
	if c.clock {
		return c.at(now)
	}
	return 0
}

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
		o.mu.Lock()
		o.holds.Push(&h.slot)
		o.mu.Unlock()
	}
	return h
}

// Arm sets h to expire one TTL after now, re-arming a running timer; it
// does nothing without a TTL. The caller holds c's lock.
func (c *Cell[P]) Arm(now int64, h *Hold[P]) {
	if c.wheel != nil {
		c.wheel.Schedule(&h.timer, h, c.at(now)+c.ttl)
	}
}

// Drop is the release funnel: it stops h's timer, takes h out of the table
// and off its owner's list, and returns its claim to the policy. It reports
// whether h was its owner's last hold. The caller holds c's lock.
func (c *Cell[P]) Drop(now int64, h *Hold[P]) (ownerEmpty bool) {
	h.timer.Stop()
	c.holds.Remove(&h.slot)
	if o := h.owner; o != nil {
		o.mu.Lock()
		o.holds.Remove(&h.slot)
		ownerEmpty = o.holds.Len() == 0
		o.mu.Unlock()
		h.owner = nil
	}
	if c.pol != nil {
		c.pol.Release(c.polNow(now), h.rate)
	}
	var zero P
	h.Val = zero
	return ownerEmpty
}

// Outcome is what one admission on a cell came to.
type Outcome int8

const (
	// Granted: the policy granted the claim and the hold is installed.
	Granted Outcome = iota
	// Denied: the policy refused the claim.
	Denied
	// HeldOwn: the key is already held by the same owner. The claim went
	// back to the policy and nothing changed.
	HeldOwn
	// HeldOther: the key is already held by another owner, as for HeldOwn.
	HeldOther
)

// Admit claims one slot from the policy and installs a hold under key,
// owned by o (nil for none), claiming rate, and armed one TTL after now.
// The policy decides first, so a full cell denies without taking its lock.
// When key is already held the claim goes back, and the rate the live hold
// claimed is returned with its Outcome.
func (c *Cell[P]) Admit(now int64, key uint64, rate float64, class uint8, o *Owner[P], val P) (policy.Decision, Outcome, float64) {
	pnow := c.polNow(now)
	dec := c.pol.Admit(pnow, key, rate, class)
	if !dec.Admit {
		return dec, Denied, 0
	}
	c.Lock()
	if h := c.holds.Get(key); h != nil {
		out, held := HeldOther, h.rate
		if h.owner == o {
			out = HeldOwn
		}
		c.Unlock()
		c.pol.Release(pnow, rate)
		return dec, out, held
	}
	c.Arm(now, c.Insert(key, o, rate, val))
	c.Unlock()
	return dec, Granted, 0
}

// AdmitRun admits a run of identical requests — one rate and class, keys
// run[i].FlowID&mask — on cells sharing one policy, each op in the cell
// cellOf names for its key, as Admit admits each op but with one vectored
// policy claim per pass. The policy grants a prefix of the run; each
// granted op installs, or returns its claim when its key is held. A pass
// that returned claims freed slots the ops past its prefix would have been
// granted had they been sent singly, so the rest of the run is admitted
// again: a run answers exactly as its ops sent one at a time. Op i sets
// bit base+i of granted when it installed, and of held (if non-nil) when
// its key was held. The Decision carries the share of the last pass that
// granted and the load the last pass observed.
func AdmitRun[P any](cellOf func(key uint64) *Cell[P], now int64, run []Frame, mask uint64, o *Owner[P], val P, base int, granted, held *BatchVerdict) (dec policy.Decision) {
	first := cellOf(run[0].FlowID & mask)
	pol, pnow := first.pol, first.polNow(now)
	rate, class := run[0].Value, run[0].Class
	for i := 0; i < len(run); {
		n, d := policy.AdmitBatch(pol, pnow, run[i].FlowID&mask, rate, class, len(run)-i)
		dec.Load = d.Load
		if n == 0 {
			break
		}
		dec.Admit, dec.Share = true, d.Share
		returned := 0
		// Consecutive ops in one cell share one lock hold: a cluster link's
		// run takes its lock once per pass.
		var locked *Cell[P]
		for end := i + n; i < end; i++ {
			key := run[i].FlowID & mask
			if c := cellOf(key); c != locked {
				if locked != nil {
					locked.Unlock()
				}
				locked = c
				c.Lock()
			}
			if locked.holds.Get(key) != nil {
				returned++
				if held != nil {
					*held |= 1 << uint(base+i)
				}
				continue
			}
			locked.Arm(now, locked.Insert(key, o, rate, val))
			*granted |= 1 << uint(base+i)
		}
		locked.Unlock()
		if returned == 0 {
			break
		}
		policy.ReleaseBatch(pol, pnow, rate, returned)
	}
	return dec
}

// Release drops the hold under key if o owns it — any hold when o is nil —
// and reports whether one went.
func (c *Cell[P]) Release(now int64, key uint64, o *Owner[P]) bool {
	c.Lock()
	h := c.holds.Get(key)
	ok := h != nil && (o == nil || h.owner == o)
	if ok {
		c.Drop(now, h)
	}
	c.Unlock()
	return ok
}

// Refresh re-arms the hold under key one TTL after now if o owns it — any
// hold when o is nil — and reports whether it lives.
func (c *Cell[P]) Refresh(now int64, key uint64, o *Owner[P]) bool {
	c.Lock()
	h := c.holds.Get(key)
	ok := h != nil && (o == nil || h.owner == o)
	if ok {
		c.Arm(now, h)
	}
	c.Unlock()
	return ok
}

// Owned reports whether o holds key, and the rate its hold claimed.
func (c *Cell[P]) Owned(key uint64, o *Owner[P]) (rate float64, ok bool) {
	c.Lock()
	if h := c.holds.Get(key); h != nil && h.owner == o {
		rate, ok = h.rate, true
	}
	c.Unlock()
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
	now = c.at(now)
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
