package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"beqos/internal/resv"
	"beqos/internal/workload"
)

// churnSpec is the flow stream of a churn schedule: Poisson arrivals at
// rate k̄ with unit-mean exponential holds, so the offered load is k̄ flows.
const churnSpec = `scenario churn
phase steady %g
arrivals poisson rate=%d
holding exp mean=1
`

// maxHold caps a drawn holding time, in mean holds. It keeps every flow's
// life shorter than one schedule period and bounds how long a flow stays
// un-refreshed in wall time; an exponential hold exceeds it with
// probability e^-8 ≈ 3·10^-4.
const maxHold = 8

// Flow states within a churn schedule.
const (
	flowUnsent  uint8 = iota
	flowPending       // reserve sent in the current call, verdict not yet settled
	flowHeld          // granted and not yet torn down
	flowDone          // denied, or torn down
)

type churnEvent struct {
	flow   uint32
	depart bool
	// wrap marks a departure that belongs to the previous period's
	// instance of the flow: its arrival plus hold crossed the period end.
	wrap bool
}

// churnOp is one reserve or teardown a call carries.
type churnOp struct {
	flow     uint32
	id       uint64
	teardown bool
}

// churn is one caller's reserve/teardown schedule, drawn before the timed
// region from a workload spec. The stream's arrivals over one period T
// become a circular schedule: each flow is an arrival and a departure
// event, a departure past T wraps to the start of the next period, and the
// schedule repeats with fresh flow IDs every period. The population is
// therefore stationary across periods, not drained and refilled at each
// repeat. Calls take events in order. A departure becomes a teardown only
// if the flow was granted, and never rides in the same call as its own
// reserve: it waits for the next call.
type churn struct {
	events   []churnEvent
	state    []uint8
	inst     []uint32 // period of each flow's current instance
	deferred []uint32
	pos      int
	period   uint32
	id       func(period, flow uint32) uint64
	// text is the spec the schedule was drawn from, for the workload layer
	// replay.
	text string
}

// newChurn draws a schedule with offered load kbar from the seed pair, with
// about flows flows per period.
func newChurn(kbar, flows int, seed1, seed2 uint64, id func(period, flow uint32) uint64) (*churn, error) {
	horizon := float64(flows) / float64(kbar)
	if horizon <= maxHold {
		return nil, fmt.Errorf("churn period %g is not longer than the longest hold %d", horizon, maxHold)
	}
	text := fmt.Sprintf(churnSpec, horizon, kbar)
	scn, err := workload.Parse(text)
	if err != nil {
		return nil, err
	}
	type timed struct {
		t  float64
		ev churnEvent
	}
	// Room for a period's Poisson count up to eight standard deviations
	// above its mean, so the slice never regrows.
	evs := make([]timed, 0, 2*(flows+8*int(math.Sqrt(float64(flows)))+8))
	st := scn.Stream(seed1, seed2)
	n := uint32(0)
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		dep, wrap := f.At+math.Min(f.Hold, maxHold), false
		if dep >= horizon {
			dep, wrap = dep-horizon, true
		}
		evs = append(evs, timed{f.At, churnEvent{flow: n}}, timed{dep, churnEvent{flow: n, depart: true, wrap: wrap}})
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("workload %q generated no flows", scn.Name)
	}
	slices.SortStableFunc(evs, func(a, b timed) int { return cmp.Compare(a.t, b.t) })
	c := &churn{
		events: make([]churnEvent, len(evs)),
		state:  make([]uint8, n),
		inst:   make([]uint32, n),
		id:     id,
		text:   text,
	}
	for i, e := range evs {
		c.events[i] = e.ev
	}
	return c, nil
}

// next appends up to max ops for the next call to ops.
func (c *churn) next(ops []churnOp, max int) []churnOp {
	n := 0
	for n < len(c.deferred) && len(ops) < max {
		f := c.deferred[n]
		n++
		if c.state[f] == flowHeld {
			ops = append(ops, churnOp{f, c.id(c.inst[f], f), true})
			c.state[f] = flowDone
		}
	}
	c.deferred = append(c.deferred[:0], c.deferred[n:]...)
	for len(ops) < max {
		if c.pos == len(c.events) {
			c.pos = 0
			c.period++
		}
		e := c.events[c.pos]
		c.pos++
		f := e.flow
		if !e.depart {
			c.inst[f], c.state[f] = c.period, flowPending
			ops = append(ops, churnOp{f, c.id(c.period, f), false})
			continue
		}
		owner := c.period
		if e.wrap {
			if owner == 0 {
				continue // the instance would have arrived before the schedule began
			}
			owner--
		}
		if c.inst[f] != owner {
			continue
		}
		switch c.state[f] {
		case flowHeld:
			ops = append(ops, churnOp{f, c.id(owner, f), true})
			c.state[f] = flowDone
		case flowPending:
			c.deferred = append(c.deferred, f)
		}
	}
	return ops
}

// settle records the verdict on a reserve op.
func (c *churn) settle(op churnOp, granted bool) {
	if op.teardown {
		return
	}
	if granted {
		c.state[op.flow] = flowHeld
	} else {
		c.state[op.flow] = flowDone
	}
}

// held returns the IDs of the flows granted and not yet torn down, and
// marks them done: the caller releases them.
func (c *churn) held() []uint64 {
	var ids []uint64
	for f, st := range c.state {
		if st == flowHeld {
			ids = append(ids, c.id(c.inst[f], uint32(f)))
			c.state[f] = flowDone
		}
	}
	return ids
}

// frame is the wire frame of op on a single link.
func (op churnOp) frame() resv.Frame {
	if op.teardown {
		return resv.Frame{Type: resv.MsgTeardown, FlowID: op.id}
	}
	return resv.Frame{Type: resv.MsgRequest, FlowID: op.id, Value: 1}
}

// linkID is the flow ID scheme of the single-link workloads: the caller in
// the top byte, then the schedule period and the flow's index.
func linkID(w int) func(period, flow uint32) uint64 {
	return func(period, flow uint32) uint64 {
		return uint64(w)<<56 | uint64(period)<<24 | uint64(flow)
	}
}
