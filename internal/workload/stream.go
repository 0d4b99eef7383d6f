package workload

import (
	"fmt"
	"math"

	"beqos/internal/rng"
)

// modStreamIndex derives the modulation substream (MMPP state machine and
// class picks) from the base seed. Keeping modulation draws off the
// primary source means adding burstiness or classes to a spec never
// perturbs the primary wait/hold sequence — and a plain Poisson spec
// draws from the primary source in exactly the order the hardwired
// loadgen pump did: prefill holds, then wait, hold, wait, hold, …
const modStreamIndex = 0x5ce6e5

// Flow is one generated arrival record: a complete, pre-drawn flow.
type Flow struct {
	// At is the absolute arrival time (0 for prefill flows).
	At float64
	// Hold is the flow's holding time, drawn from the phase's
	// distribution.
	Hold float64
	// Class indexes Scenario.Classes (0 when the scenario has none).
	Class int
	// Phase indexes Scenario.Phases.
	Phase int
}

// String renders the record with full float precision — the golden-trace
// format determinism tests byte-compare across consumers.
func (f Flow) String() string {
	return fmt.Sprintf("%.17g %.17g %d %d", f.At, f.Hold, f.Class, f.Phase)
}

// Stream generates a scenario's arrival records in time order. It owns
// all random state, so any two consumers pulling from equal-seeded
// streams see byte-identical records regardless of what they do between
// pulls.
type Stream struct {
	scn *Scenario
	src *rng.Source // primary: inter-arrival waits, thinning, batches, holds
	mod *rng.Source // modulation: MMPP state machine, class picks

	t         float64
	phase     int
	batch     int // flows still to land at t (the prefill, a session's rest)
	mmppHigh  bool
	mmppUntil float64
	done      bool
}

// Stream instantiates the scenario's arrival stream for one run. The
// primary source is seeded directly from (seed1, seed2); the modulation
// source from an rng.Substream derived off the same pair.
func (s *Scenario) Stream(seed1, seed2 uint64) *Stream {
	m1, m2 := rng.Substream(seed1, seed2, modStreamIndex)
	st := &Stream{
		scn:   s,
		src:   rng.New(seed1, seed2),
		mod:   rng.New(m1, m2),
		batch: s.Prefill,
	}
	st.enterPhase(0)
	return st
}

// Next returns the next arrival record, or ok=false when the scenario
// horizon is exhausted. Prefill flows come first, all at t=0, drawn from
// phase 0's class mixture and holding distribution; the flows of one
// session batch share its arrival instant.
func (st *Stream) Next() (Flow, bool) {
	if st.done {
		return Flow{}, false
	}
	if st.batch > 0 {
		st.batch--
	} else if !st.nextArrival() {
		st.done = true
		return Flow{}, false
	}
	f := Flow{At: st.t, Phase: st.phase}
	f.Class = st.pickClass()
	f.Hold = st.hold(st.phase)
	return f, true
}

// enterPhase positions the generator at the start of phase i and
// initializes its modulation state.
func (st *Stream) enterPhase(i int) {
	st.phase = i
	if i >= len(st.scn.Phases) {
		return
	}
	ph := &st.scn.Phases[i]
	st.t = ph.Start
	if ph.Arrivals.Kind == "mmpp" {
		// Equal sojourn means ⇒ stationary state split is 1/2.
		st.mmppHigh = st.mod.Float64() < 0.5
		st.mmppUntil = st.t + st.mod.Exp(ph.Arrivals.Sojourn)
	}
}

// nextArrival advances the arrival process to the next arrival instant
// st.t, reporting false once the scenario is exhausted.
//
// Poisson/MMPP/session phases generate against a piecewise-constant rate
// envelope (phase boundaries, event edges, MMPP state switches): within
// a segment the process is homogeneous Poisson, and by memorylessness a
// wait that crosses a boundary is discarded and redrawn at the new rate
// — exact, not an approximation. Sine modulation is applied by
// Lewis–Shedler thinning against the segment's majorant rate·(1+depth).
// A session phase's instants are sessions, each drawing its batch size
// after its wait.
//
// Gamma phases are renewal processes: each inter-arrival is a Gamma
// variate with shape 1/cv² and mean 1/rate. A renewal crossing the phase
// end is discarded (the residual does not carry into the next phase).
func (st *Stream) nextArrival() bool {
	scn := st.scn
	for st.phase < len(scn.Phases) {
		ph := &scn.Phases[st.phase]
		end := ph.Start + ph.Duration
		if ph.Arrivals.Kind == "gamma" {
			shape := 1 / (ph.Arrivals.CV * ph.Arrivals.CV)
			scale := 1 / (ph.Arrivals.Rate * shape)
			w := st.src.Gamma(shape, scale)
			if st.t+w > end {
				st.enterPhase(st.phase + 1)
				continue
			}
			if st.t+w == st.t {
				// A draw too small to advance the clock (possible for
				// extreme low shapes); redraw rather than emit a stuck
				// arrival sequence.
				continue
			}
			st.t += w
			return true
		}
		rate := st.envelopeRate(ph)
		maj := rate
		if ph.Sine != nil {
			maj *= 1 + ph.Sine.Depth
		}
		segEnd := st.segmentEnd(ph, end)
		w := st.src.Exp(1 / maj)
		if st.t+w > segEnd {
			st.t = segEnd
			if segEnd >= end {
				st.enterPhase(st.phase + 1)
			} else if ph.Arrivals.Kind == "mmpp" && segEnd == st.mmppUntil {
				st.mmppHigh = !st.mmppHigh
				st.mmppUntil = st.t + st.mod.Exp(ph.Arrivals.Sojourn)
			}
			continue
		}
		st.t += w
		if ph.Sine != nil {
			accept := (1 + ph.Sine.Depth*math.Sin(2*math.Pi*(st.t-ph.Start)/ph.Sine.Period)) / (1 + ph.Sine.Depth)
			if st.src.Float64() > accept {
				continue
			}
		}
		if ph.Arrivals.Kind == "session" {
			// Scale ≥ 1, so the batch is at least one flow; cap it before
			// converting (the variate may be +Inf).
			st.batch = int(math.Min(st.src.Pareto(ph.Arrivals.Scale, ph.Arrivals.Shape), MaxPrefill)) - 1
		}
		return true
	}
	return false
}

// envelopeRate returns the piecewise-constant rate of arrival instants in
// effect at st.t: the phase rate (or the current MMPP state rate; for a
// session phase the session rate, rate/MeanBatch) times any active event
// multipliers.
func (st *Stream) envelopeRate(ph *Phase) float64 {
	rate := ph.Arrivals.Rate / ph.Arrivals.batch
	if ph.Arrivals.Kind == "mmpp" {
		low := 2 * ph.Arrivals.Rate / (1 + ph.Arrivals.Burst)
		if st.mmppHigh {
			rate = ph.Arrivals.Burst * low
		} else {
			rate = low
		}
	}
	return rate * ph.eventMult(st.t)
}

// segmentEnd returns the end of the homogeneous segment containing st.t:
// the earliest of the phase end, the next event edge, and (for MMPP) the
// next state switch.
func (st *Stream) segmentEnd(ph *Phase, end float64) float64 {
	seg := ph.nextEdge(st.t)
	if seg > end {
		seg = end
	}
	if ph.Arrivals.Kind == "mmpp" && st.mmppUntil < seg {
		seg = st.mmppUntil
	}
	return seg
}

// pickClass draws a class index from the scenario mixture (modulation
// source; no draw for classless scenarios).
func (st *Stream) pickClass() int {
	cs := st.scn.Classes
	if len(cs) == 0 {
		return 0
	}
	u := st.mod.Float64()
	for i := range cs {
		u -= cs[i].Weight
		if u < 0 {
			return i
		}
	}
	return len(cs) - 1
}

// hold draws a holding time from the phase's distribution (primary
// source).
func (st *Stream) hold(phase int) float64 {
	h := &st.scn.Phases[phase].Holding
	switch h.Kind {
	case "pareto":
		return st.src.Pareto(h.scale, h.Shape)
	case "lognormal":
		return st.src.LogNormal(h.mu, h.Sigma)
	default:
		return st.src.Exp(h.Mean)
	}
}
