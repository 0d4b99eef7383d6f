package resv

import "time"

// The soft-state expiry index: a two-level hierarchical timing wheel. The
// resv server keeps one per shard; the cluster plane one per link (hop
// claims) and one per client connection (path flows). Every TTL deadline
// sits in a bucket keyed by its deadline tick, so an advance only touches
// records whose bucket comes due (plus one coarse-bucket cascade every
// wheelSlots ticks) — never a scan of the whole table.
//
// Level 0 buckets are one resolution tick wide and cover the next
// wheelSlots ticks; level 1 buckets are wheelSlots ticks wide and cover
// wheelSlots× that horizon. Deadlines beyond level 1 simply take extra
// laps: each cascade re-bins them until they fall within a finer window.
// All buckets are circular lists threaded through Timers embedded in the
// records themselves (sentinel-headed), so linking and unlinking never
// allocate.
//
// Cancelling and postponing are lazy. A stopped timer, and a timer whose
// deadline moved later, stay where they are until their bucket comes due;
// the advance then drops or re-files them. Serving paths therefore never
// touch a timer's list neighbours — records whose last use was long ago,
// so cold in cache — on a teardown, a refresh, or the reuse of a recycled
// record. The advance pays that instead, at most once per timer per bucket.

const (
	wheelBits  = 6
	wheelSlots = 1 << wheelBits // 64 buckets per level
	wheelMask  = wheelSlots - 1

	// wheelResDivisor sets a wheel's resolution to ttl/256, floored at 1ms
	// so pathological TTLs cannot busy-loop an expiry goroutine or panic
	// time.NewTicker.
	wheelResDivisor = 256
)

// WheelRes returns the tick width of the expiry wheels for a soft-state
// lifetime ttl > 0: ttl/256, at least 1ms. An expiry goroutine advances its
// wheels once per tick.
func WheelRes(ttl time.Duration) time.Duration {
	if res := ttl / wheelResDivisor; res > time.Millisecond {
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
	// next/prev link the timer into a bucket (circular, sentinel headed);
	// both are nil while it is unlinked.
	next, prev *Timer[T]
}

// Stop cancels t: its record will not be handed to expire. The timer stays
// linked until its bucket comes due, so Stop touches nothing but t.
func (t *Timer[T]) Stop() {
	var zero T
	t.item = zero
}

func (t *Timer[T]) unlink() {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.next, t.prev = nil, nil
}

// Wheel is the two-level timing wheel. It does no locking: the owner of the
// table whose records it indexes serializes every call.
type Wheel[T comparable] struct {
	res  int64 // nanoseconds per level-0 tick
	tick int64 // next unprocessed tick: every timer with deadline/res < tick has been expired or re-binned
	// slots are circular-list sentinels; an empty bucket points at itself.
	slots [2][wheelSlots]Timer[T]
}

// NewWheel returns an empty wheel with the given tick width (see WheelRes)
// whose first tick is the one holding now, the owner's clock at creation —
// a wheel made long after the clock's epoch does not replay the ticks
// before it on its first advance.
func NewWheel[T comparable](res time.Duration, now int64) *Wheel[T] {
	w := &Wheel[T]{res: int64(res), tick: now / int64(res)}
	for l := range w.slots {
		for i := range w.slots[l] {
			s := &w.slots[l][i]
			s.next, s.prev = s, s
		}
	}
	return w
}

// Schedule arms t, on behalf of item (which must not be the zero T), to
// expire at deadline; it also rearms a running or stopped timer, as on a
// refresh or on the reuse of a recycled record. A linked timer whose
// deadline moves later keeps its bucket, which comes due first; only a
// deadline moved earlier is relinked at once. Deadlines whose tick has
// already been processed land in the imminent level-0 bucket and expire on
// the next advance.
func (w *Wheel[T]) Schedule(t *Timer[T], item T, deadline int64) {
	t.item = item
	if t.next != nil {
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
	var s *Timer[T]
	if dt-w.tick < wheelSlots {
		s = &w.slots[0][dt&wheelMask]
	} else {
		s = &w.slots[1][(dt>>wheelBits)&wheelMask]
	}
	t.prev = s.prev
	t.next = s
	s.prev.next = t
	s.prev = t
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
		if t&wheelMask == 0 {
			w.cascade(t)
		}
		s := &w.slots[0][t&wheelMask]
		for e := s.next; e != s; {
			next := e.next
			e.unlink()
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

// cascade lazily re-bins the level-1 bucket covering the level-0 window
// that starts at tick t: timers due inside the window drop to level 0,
// timers a full lap (or more) away go back into level 1, and stopped
// timers leave the wheel.
func (w *Wheel[T]) cascade(t int64) {
	var zero T
	s := &w.slots[1][(t>>wheelBits)&wheelMask]
	// Detach the whole list first: a re-binned timer may land back in this
	// very bucket (another lap out) and must not be rescanned now.
	head := s.next
	s.next, s.prev = s, s
	for e := head; e != s; {
		next := e.next
		e.next, e.prev = nil, nil
		if e.item != zero {
			w.link(e)
		}
		e = next
	}
}
