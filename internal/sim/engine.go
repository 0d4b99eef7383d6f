// Package sim is a flow-level discrete-event simulator for a single
// bottleneck link. It replays a workload scenario's arrival stream
// (internal/workload), applies either best-effort sharing or
// reservation-style admission control, and measures the stationary
// occupancy distribution, per-flow utilities, blocking and retry behavior.
//
// The paper (Breslau & Shenker, SIGCOMM 1998) postulates static load
// distributions P(k) rather than modeling flow dynamics; this package
// closes that gap: it produces the stationary distribution from explicit
// dynamics (as a dist.Empirical ready to feed back into the analytical
// model in internal/core) and cross-validates the paper's per-flow utility
// definitions against measured ones.
package sim

import "math"

// eventKind tags a scheduled event record with its dispatch action. The
// simulator's hot loop schedules tagged records (no closure allocation);
// evFunc carries an arbitrary callback for external users of the engine.
type eventKind uint8

const (
	// evFunc runs the attached closure (the generic Schedule API).
	evFunc eventKind = iota
	// evDepart ends flow `flow`'s holding time.
	evDepart
	// evSample records a §5.1 load observation for flow `flow`.
	evSample
	// evRetry re-submits rejected flow `flow` after its backoff.
	evRetry
)

// event is one scheduled record. seq breaks ties deterministically, so
// events scheduled for the same instant run in scheduling order.
type event struct {
	at   float64
	seq  uint64
	fn   func() // evFunc only
	kind eventKind
	flow int32 // flow-arena index (evDepart/evSample/evRetry)
}

// Engine is a deterministic discrete-event scheduler. Its priority queue
// is a typed 4-ary heap over event records: no container/heap interface
// boxing, no per-event allocation once the backing array has grown to the
// run's steady-state size.
type Engine struct {
	now float64
	seq uint64
	pq  []event
	// dispatched and maxQueued are plain observability tallies (the engine
	// is single-threaded): events popped and the queue's high-water mark.
	dispatched uint64
	maxQueued  int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Dispatched reports the total number of events dispatched so far: those
// popped, and those the caller dispatched itself (advanceTo).
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// MaxQueued reports the event queue's high-water mark.
func (e *Engine) MaxQueued() int { return e.maxQueued }

// Schedule runs fn after the given (nonnegative) delay. Events scheduled
// for the same instant run in scheduling order.
func (e *Engine) Schedule(delay float64, fn func()) {
	ev := event{kind: evFunc, fn: fn}
	e.schedule(delay, ev)
}

// scheduleTagged enqueues a closure-free tagged record — the simulator's
// zero-allocation internal path.
func (e *Engine) scheduleTagged(delay float64, kind eventKind, flow int32) {
	e.schedule(delay, event{kind: kind, flow: flow})
}

func (e *Engine) schedule(delay float64, ev event) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev.at, ev.seq = e.now+delay, e.seq
	e.push(ev)
}

// peek returns the earliest queued event's time, +Inf when none is queued.
func (e *Engine) peek() float64 {
	if len(e.pq) == 0 {
		return math.Inf(1)
	}
	return e.pq[0].at
}

// advanceTo moves the clock to t for an event the caller dispatches from
// outside the queue, counting it as dispatched. The caller guarantees
// now ≤ t ≤ peek().
func (e *Engine) advanceTo(t float64) {
	e.now = t
	e.dispatched++
}

// next pops the earliest event at or before until, advancing the clock to
// it. When no such event exists it advances the clock to until and reports
// false; events strictly past until stay queued.
func (e *Engine) next(until float64) (event, bool) {
	if len(e.pq) == 0 || e.pq[0].at > until {
		if e.now < until {
			e.now = until
		}
		return event{}, false
	}
	ev := e.pop()
	e.now = ev.at
	e.dispatched++
	return ev, true
}

// Run processes closure events until the queue empties or the clock passes
// until. Events at exactly until are processed. (The simulator's internal
// loop uses next directly and dispatches tagged records itself.)
func (e *Engine) Run(until float64) {
	for {
		ev, ok := e.next(until)
		if !ok {
			return
		}
		if ev.fn != nil {
			ev.fn()
		}
	}
}

// less orders events by (at, seq).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts into the 4-ary min-heap.
func (e *Engine) push(ev event) {
	e.pq = append(e.pq, ev)
	if len(e.pq) > e.maxQueued {
		e.maxQueued = len(e.pq)
	}
	i := len(e.pq) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&e.pq[i], &e.pq[p]) {
			break
		}
		e.pq[i], e.pq[p] = e.pq[p], e.pq[i]
		i = p
	}
}

// pop removes and returns the heap minimum.
func (e *Engine) pop() event {
	top := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq[n] = event{} // drop the closure reference, if any
	e.pq = e.pq[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&e.pq[j], &e.pq[m]) {
				m = j
			}
		}
		if !less(&e.pq[m], &e.pq[i]) {
			break
		}
		e.pq[i], e.pq[m] = e.pq[m], e.pq[i]
		i = m
	}
	return top
}
