package resv

import "time"

// The soft-state expiry index: a one-level timing wheel. The resv server
// keeps one per shard; the cluster plane one per link (hop claims) and one
// per client connection (path flows). Every TTL deadline sits in the bucket
// of its deadline tick, so an advance only touches records whose bucket
// comes due — never a scan of the whole table.
//
// A wheel has wheelSlots buckets, each one tick wide, and a TTL, the only
// deadline the cells arm, is ttlTicks ticks: 8 short of the lap. A
// deadline is filed in the bucket of its tick modulo the lap, so one a lap
// or more past the next tick to drain shares its bucket with nearer ones
// and is re-filed each time that bucket comes due before its tick. A hold
// armed one TTL out lands in a bucket that next comes due at its own
// deadline tick, not in the one its arm's tick drains, so it is filed once
// unless the expiry loop lags its arm by 7 ticks or more. Each bucket is a
// list threaded through Timers embedded in the records themselves, so
// linking and unlinking never allocate.
//
// Cancelling and postponing are lazy. A stopped timer, and a timer whose
// deadline moved later, stay where they are until their bucket comes due;
// the advance then drops or re-files them. Serving paths therefore never
// touch a timer's list neighbours — records whose last use was long ago,
// so cold in cache — on a teardown, a refresh, or the reuse of a recycled
// record. The advance pays that instead, at most once per timer per bucket.

// wheelSlots is a wheel's lap in ticks.
const wheelSlots = 256

// ttlTicks is the number of ticks in a TTL (see WheelRes), a few short of
// the lap.
const ttlTicks = wheelSlots - 8

// WheelRes returns the tick width of the expiry wheels for a soft-state
// lifetime ttl > 0: ttl/ttlTicks, at least 1ms, so pathological TTLs
// cannot busy-loop an expiry goroutine or panic time.NewTicker. An expiry
// goroutine advances its wheels once per tick.
func WheelRes(ttl time.Duration) time.Duration {
	if res := ttl / ttlTicks; res > time.Millisecond {
		return res
	}
	return time.Millisecond
}

// Timer is one record's place in a Wheel. It is embedded in the record it
// expires; item points back at that record, and is the zero T while the
// timer is stopped. The zero Timer is stopped and unlinked.
type Timer[T comparable] struct {
	item T
	// deadline is the expiry instant on the wheel owner's nanosecond clock.
	// A linked timer's bucket comes due no later than its deadline's tick
	// (or at the first tick not yet processed, for a deadline already
	// past), which is what lets Schedule postpone it in place.
	deadline int64
	// next links the timer to the one after it in its bucket, and pprev
	// points at whatever points at it: the bucket's head or the previous
	// timer's next. The timer is linked iff pprev != nil.
	next  *Timer[T]
	pprev **Timer[T]
}

// Stop cancels t: its record will not be handed to expire. The timer stays
// linked until its bucket comes due, so Stop touches nothing but t.
func (t *Timer[T]) Stop() {
	var zero T
	t.item = zero
}

func (t *Timer[T]) unlink() {
	*t.pprev = t.next
	if t.next != nil {
		t.next.pprev = t.pprev
	}
	t.next, t.pprev = nil, nil
}

// Wheel is the timing wheel. It does no locking: the owner of the table
// whose records it indexes serializes every call.
type Wheel[T comparable] struct {
	res  int64 // nanoseconds per tick
	tick int64 // next unprocessed tick: every timer with deadline/res < tick has been expired or re-filed
	// slots are the buckets' heads, nil when empty; tick t's bucket is
	// slots[t%wheelSlots].
	slots [wheelSlots]*Timer[T]
}

// NewWheel returns an empty wheel with the given tick width (see WheelRes)
// whose first tick is the one holding now, the owner's clock at creation —
// a wheel made long after the clock's epoch does not replay the ticks
// before it on its first advance.
func NewWheel[T comparable](res time.Duration, now int64) *Wheel[T] {
	return &Wheel[T]{res: int64(res), tick: now / int64(res)}
}

// Schedule arms t, on behalf of item (which must not be the zero T), to
// expire at deadline; it also rearms a running or stopped timer, as on a
// refresh or on the reuse of a recycled record. A linked timer whose
// deadline moves later keeps its bucket, which comes due first; only a
// deadline moved earlier is relinked at once. Deadlines whose tick has
// already been processed land in the imminent bucket and expire on the
// next advance.
func (w *Wheel[T]) Schedule(t *Timer[T], item T, deadline int64) {
	t.item = item
	if t.pprev != nil {
		if deadline >= t.deadline {
			t.deadline = deadline
			return
		}
		t.unlink()
	}
	t.deadline = deadline
	w.link(t)
}

func (w *Wheel[T]) link(t *Timer[T]) {
	dt := t.deadline / w.res
	if dt < w.tick {
		dt = w.tick
	}
	b := &w.slots[dt&(wheelSlots-1)]
	t.next, t.pprev = *b, b
	if *b != nil {
		(*b).pprev = &t.next
	}
	*b = t
}

// Advance processes every tick now has fully passed and calls expire for
// each record that is due, its timer already unlinked; expire must not
// schedule any timer of this wheel. Stopped timers in a due bucket are
// dropped and postponed ones re-filed. Tick t is processed only once
// now/res > t, i.e. once now is past the tick's *end* — so a record
// expires strictly after its deadline, never at it, and a record refreshed
// exactly at its TTL boundary is re-filed, not expired.
func (w *Wheel[T]) Advance(now int64, expire func(T)) {
	var zero T
	for nowTick := now / w.res; w.tick < nowTick; w.tick++ {
		t := w.tick
		// Detach the bucket before walking it: a timer re-filed a lap (or a
		// multiple of one) out lands back in this very bucket and must not
		// be met again now.
		b := &w.slots[t&(wheelSlots-1)]
		e := *b
		*b = nil
		for e != nil {
			next := e.next
			e.next, e.pprev = nil, nil
			switch {
			case e.item == zero:
			case e.deadline/w.res > t:
				w.link(e)
			default:
				expire(e.item)
			}
			e = next
		}
	}
}
