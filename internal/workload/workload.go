// Package workload is the declarative scenario plane: a small text spec
// format describing named traffic scenarios — phases with per-phase
// arrival processes (Poisson, MMPP, Gamma renewal, Pareto session
// batches), holding-time distributions (exponential, Pareto, lognormal),
// flow-class mixtures, and events (flash crowd, rate step, diurnal sine)
// — compiled into a deterministic arrival stream that both the
// virtual-time simulator (internal/sim) and the live load harness
// (internal/loadgen) consume: their only source of arrivals.
//
// The paper's best-effort/reservation comparison rests on a postulated
// stationary load distribution; this package supplies the non-stationary
// and bursty traffic (after Fayolle et al.'s best-effort traffic-class
// modeling) that the admission planes are exercised against.
package workload

import (
	"fmt"
	"math"

	"beqos/internal/numeric"
)

// Structural bounds enforced by Parse. They keep pathological specs (from
// fuzzing or typos) from compiling into streams that would effectively
// never terminate.
const (
	// MaxPhases bounds the number of phases in a scenario.
	MaxPhases = 64
	// MaxClasses bounds the number of flow classes in a scenario.
	MaxClasses = 16
	// MaxEvents bounds the number of events attached to one phase.
	MaxEvents = 16
	// MaxPrefill bounds the prefill population, and the size of one
	// session batch.
	MaxPrefill = 1 << 20
	// MaxRate bounds any arrival rate, including event-multiplied peaks.
	MaxRate = 1e9
	// MaxDuration bounds any single phase duration (and hence, with
	// MaxPhases, the scenario horizon).
	MaxDuration = 1e9
	// MaxTier is the highest admission class tier a flow class may carry
	// (the resv wire protocol's 2-bit class field).
	MaxTier = 3
	// MaxPhaseArrivals bounds a phase's expected arrival count
	// (peak rate × duration). Beyond ~1e8 the inter-arrival waits fall
	// under the float64 resolution of the absolute clock and the stream
	// would stop advancing.
	MaxPhaseArrivals = 1e8
	// MaxMMPPSwitches bounds a phase's expected MMPP state switches
	// (duration / sojourn), so generation cost stays proportional to the
	// arrival count.
	MaxMMPPSwitches = 1e7
)

// Scenario is a parsed, validated workload specification. It is immutable
// after Parse; per-run state lives in the Stream it instantiates.
type Scenario struct {
	// Name is the scenario's declared name.
	Name string
	// Prefill is the number of flows injected at t=0 (before any
	// arrival-process draws), used to start a run at its stationary
	// population instead of empty.
	Prefill int
	// Warmup is the measurement warmup prefix consumers should exclude.
	Warmup float64
	// Classes is the flow-class mixture (weights normalized to sum to 1).
	// Empty means a single implicit class.
	Classes []Class
	// Phases are the scenario's phases in time order; Phase.Start is
	// computed by Parse.
	Phases []Phase

	total float64
}

// Class is one entry of a scenario's flow-class mixture.
type Class struct {
	// Name is the class's declared name.
	Name string
	// Weight is the normalized probability an arrival belongs to this
	// class.
	Weight float64
	// Demand scales the class's capacity demand relative to the base flow.
	Demand float64
	// Tier is the admission class tier carried on the wire (0 = highest
	// priority under tiered policies).
	Tier uint8
}

// Phase is one contiguous segment of a scenario.
type Phase struct {
	// Name is the phase's declared name.
	Name string
	// Start is the phase's absolute start time (computed by Parse).
	Start float64
	// Duration is the phase's length.
	Duration float64
	// Arrivals is the phase's arrival process.
	Arrivals ArrivalSpec
	// Holding is the phase's holding-time distribution.
	Holding HoldSpec
	// Events are the phase's rate events (step, flash); the optional
	// sine modulation is in Sine.
	Events []Event
	// Sine is the phase's diurnal sine modulation, if any.
	Sine *Event

	// edges are the sorted, deduplicated phase-relative event boundaries
	// (step onsets, flash onsets and offsets) used for piecewise-constant
	// rate generation.
	edges []float64
}

// ArrivalSpec describes a phase's arrival process.
type ArrivalSpec struct {
	// Kind is "poisson", "mmpp", "gamma", or "session".
	Kind string
	// Rate is the mean arrival rate (flows per unit virtual time). For
	// MMPP, Gamma and session phases it is the long-run mean rate.
	Rate float64
	// Burst is the MMPP high/low rate ratio (≥ 1; 1 degenerates to
	// Poisson). With equal sojourn means the two state rates are
	// 2·Rate/(1+Burst) and Burst·2·Rate/(1+Burst).
	Burst float64
	// Sojourn is the MMPP mean sojourn time in each state.
	Sojourn float64
	// CV is the Gamma renewal process's target coefficient of variation
	// of inter-arrival times (1 degenerates to Poisson; >1 is burstier).
	CV float64
	// Scale and Shape give a session phase's batch law: sessions arrive
	// as a Poisson process at Rate/MeanBatch() and each lands
	// min(⌊Pareto(Scale, Shape)⌋, MaxPrefill) flows at one instant. Scale
	// ≥ 1 keeps every batch at least one flow.
	Scale float64
	Shape float64

	// batch caches MeanBatch for a finalized phase.
	batch float64
}

// check validates the process's parameters (the arrivals directive's
// rules).
func (a ArrivalSpec) check() error {
	switch a.Kind {
	case "poisson":
	case "mmpp":
		if !(a.Burst >= 1) || a.Burst > 1e6 {
			return fmt.Errorf("arrivals mmpp needs burst= in [1, 1e6] (high/low rate ratio)")
		}
		if !(a.Sojourn > 0) || a.Sojourn > MaxDuration {
			return fmt.Errorf("arrivals mmpp needs sojourn= in (0, %g] (mean state sojourn)", float64(MaxDuration))
		}
	case "gamma":
		if !(a.CV > 0) || a.CV > 10 {
			return fmt.Errorf("arrivals gamma needs cv= in (0, 10] (inter-arrival coefficient of variation)")
		}
	case "session":
		if !(a.Scale >= 1) || a.Scale > MaxPrefill {
			return fmt.Errorf("arrivals session needs scale= in [1, %d] (the least batch)", MaxPrefill)
		}
		if !(a.Shape > 1) || a.Shape > 10 {
			return fmt.Errorf("arrivals session needs shape= in (1, 10]: shape ≤ 1 has an unbounded batch mean")
		}
	default:
		return fmt.Errorf("unknown arrival process %q (want poisson, mmpp, gamma, or session)", a.Kind)
	}
	if !(a.Rate > 0) || a.Rate > MaxRate {
		return fmt.Errorf("arrivals %s needs rate= in (0, %g]", a.Kind, float64(MaxRate))
	}
	return nil
}

// MeanBatch returns the mean number of flows landing at one arrival
// instant: 1 for every kind but session. A session batch B =
// min(⌊X⌋, M) with X ~ Pareto(Scale, Shape) and M = MaxPrefill has
// P(B ≥ n) = P(X ≥ n) = min(1, (Scale/n)^Shape) for n ≤ M, so with
// a = ⌊Scale⌋
//
//	E[B] = Σ_{n=1}^{M} P(X ≥ n) = a + Scale^Shape·(ζ(Shape, a+1) − ζ(Shape, M+1)),
//
// ζ the Hurwitz zeta function; Pareto(1, 1.5) batches average
// ζ(1.5) − ζ(1.5, M+1) ≈ 2.610, not the continuous mean 3.
func (a ArrivalSpec) MeanBatch() float64 {
	if a.Kind != "session" {
		return 1
	}
	lo := math.Floor(a.Scale)
	return lo + math.Pow(a.Scale, a.Shape)*(numeric.HurwitzZeta(a.Shape, lo+1)-numeric.HurwitzZeta(a.Shape, MaxPrefill+1))
}

// HoldSpec describes a phase's holding-time distribution.
type HoldSpec struct {
	// Kind is "exp", "pareto", or "lognormal".
	Kind string
	// Mean is the distribution's mean holding time.
	Mean float64
	// Shape is the Pareto tail index (must exceed 1 so the mean is
	// bounded).
	Shape float64
	// Sigma is the lognormal log-scale deviation.
	Sigma float64

	// scale is the Pareto scale x_m = Mean·(Shape-1)/Shape.
	scale float64
	// mu is the lognormal location ln(Mean) - Sigma²/2.
	mu float64
}

// check validates the distribution's parameters (the holding
// directive's rules).
func (h HoldSpec) check() error {
	if !(h.Mean > 0) || h.Mean > MaxDuration {
		return fmt.Errorf("holding %s needs mean= in (0, %g]", h.Kind, float64(MaxDuration))
	}
	switch h.Kind {
	case "exp":
	case "pareto":
		if !(h.Shape > 1) || h.Shape > 1e3 {
			return fmt.Errorf("holding pareto needs shape= in (1, 1e3]: shape ≤ 1 has an unbounded mean")
		}
	case "lognormal":
		if !(h.Sigma > 0) || h.Sigma > 4 {
			return fmt.Errorf("holding lognormal needs sigma= in (0, 4]: larger log-deviations make the empirical mean effectively unbounded")
		}
	default:
		return fmt.Errorf("unknown holding distribution %q (want exp, pareto, or lognormal)", h.Kind)
	}
	return nil
}

// Event is a rate event inside a phase. Times are phase-relative.
type Event struct {
	// Kind is "step", "flash", or "sine".
	Kind string
	// At is the onset offset from the phase start (step, flash).
	At float64
	// Mult multiplies the phase rate from the onset on (step) or for the
	// window [At, At+Width) (flash).
	Mult float64
	// Width is the flash crowd's window length.
	Width float64
	// Period is the sine modulation period.
	Period float64
	// Depth is the sine modulation depth d ∈ [0, 1): the instantaneous
	// rate is rate·(1 + d·sin(2πt/Period)).
	Depth float64
}

// OnePhase builds a scenario, "one-phase", of one phase, "steady",
// lasting duration (the warmup prefix included), with prefill flows at
// t=0. It checks its
// arguments against the bounds Parse applies to the equivalent spec and
// validates the result as Parse does.
func OnePhase(prefill int, warmup, duration float64, arr ArrivalSpec, hold HoldSpec) (*Scenario, error) {
	if prefill < 0 || prefill > MaxPrefill {
		return nil, fmt.Errorf("workload: prefill %d must be in [0, %d]", prefill, MaxPrefill)
	}
	if !(warmup >= 0) || warmup > MaxDuration {
		return nil, fmt.Errorf("workload: warmup %g must be in [0, %g]", warmup, float64(MaxDuration))
	}
	if !(duration > 0) || duration > MaxDuration {
		return nil, fmt.Errorf("workload: duration %g must be in (0, %g]", duration, float64(MaxDuration))
	}
	if err := arr.check(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if err := hold.check(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	s := &Scenario{Name: "one-phase", Prefill: prefill, Warmup: warmup,
		Phases: []Phase{{Name: "steady", Duration: duration, Arrivals: arr, Holding: hold}}}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Duration returns the scenario's total horizon (the sum of phase
// durations).
func (s *Scenario) Duration() float64 { return s.total }

// PhaseAt returns the index of the phase containing time t. Times at or
// past the end map to the last phase; negative times to the first.
func (s *Scenario) PhaseAt(t float64) int {
	for i := len(s.Phases) - 1; i > 0; i-- {
		if t >= s.Phases[i].Start {
			return i
		}
	}
	return 0
}

// Tractable reports the phase's stationary offered mean when the phase is
// analytically tractable as an M/G/∞ segment: Poisson arrivals with no
// rate events. By M/G/∞ insensitivity the offered population depends on
// the holding distribution only through its mean, so the offered mean is
// Rate·E[hold] for any of the holding kinds.
func (p *Phase) Tractable() (mean float64, ok bool) {
	if p.Arrivals.Kind != "poisson" || len(p.Events) > 0 || p.Sine != nil {
		return 0, false
	}
	return p.Arrivals.Rate * p.Holding.Mean, true
}

// Enforceable reports, per phase, whether a live-harness cross-check
// against the stationary model may be enforced at full confidence. A
// phase is enforceable when it is tractable with exponential holds AND
// the population entering it is already stationary at the same mean:
// phase 0 needs Prefill == round(mean); a later phase needs the previous
// phase enforceable at identical rate and hold mean (so no transient is
// in flight at the boundary).
func (s *Scenario) Enforceable() []bool {
	enf := make([]bool, len(s.Phases))
	for i := range s.Phases {
		p := &s.Phases[i]
		mean, ok := p.Tractable()
		if !ok || p.Holding.Kind != "exp" {
			continue
		}
		if i == 0 {
			enf[0] = s.Prefill == int(math.Round(mean))
			continue
		}
		prev := &s.Phases[i-1]
		enf[i] = enf[i-1] &&
			prev.Arrivals.Rate == p.Arrivals.Rate &&
			prev.Holding.Mean == p.Holding.Mean
	}
	return enf
}

// Stationary reports the scenario's single stationary offered mean when
// every phase is enforceable (see Enforceable) — i.e. the whole run is
// one stationary M/M/∞ segment and classic whole-run cross-checks apply.
func (s *Scenario) Stationary() (mean float64, ok bool) {
	enf := s.Enforceable()
	for _, e := range enf {
		if !e {
			return 0, false
		}
	}
	m, _ := s.Phases[0].Tractable()
	return m, true
}

// validate runs the whole-scenario checks Parse defers until the spec is
// fully read, and computes the derived fields (phase starts, holding
// parameters, event edges).
func (s *Scenario) validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: scenario %q declares no phases", s.Name)
	}
	start := 0.0
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Arrivals.Kind == "" {
			return fmt.Errorf("workload: phase %q has no arrivals directive", p.Name)
		}
		if p.Holding.Kind == "" {
			return fmt.Errorf("workload: phase %q has no holding directive", p.Name)
		}
		renewal := map[string]string{"gamma": "gamma renewal", "session": "session batch"}[p.Arrivals.Kind]
		if renewal != "" && (len(p.Events) > 0 || p.Sine != nil) {
			return fmt.Errorf("workload: phase %q combines %s arrivals with events (events need a rate envelope; use poisson or mmpp)", p.Name, renewal)
		}
		// Peak rate including event multipliers must stay bounded.
		peak := p.Arrivals.Rate
		for _, ev := range p.Events {
			peak *= math.Max(ev.Mult, 1)
		}
		if p.Sine != nil {
			peak *= 1 + p.Sine.Depth
		}
		if peak > MaxRate {
			return fmt.Errorf("workload: phase %q peak rate %g exceeds %g", p.Name, peak, float64(MaxRate))
		}
		if peak*p.Duration > MaxPhaseArrivals {
			return fmt.Errorf("workload: phase %q expects %g arrivals (peak rate × duration); cap %g", p.Name, peak*p.Duration, float64(MaxPhaseArrivals))
		}
		if p.Arrivals.Kind == "mmpp" && p.Duration/p.Arrivals.Sojourn > MaxMMPPSwitches {
			return fmt.Errorf("workload: phase %q expects %g MMPP state switches (duration/sojourn); cap %g", p.Name, p.Duration/p.Arrivals.Sojourn, float64(MaxMMPPSwitches))
		}
		p.Start = start
		start += p.Duration
		p.finalize()
	}
	s.total = start
	if !(s.total > 0) || s.total > MaxPhases*MaxDuration {
		return fmt.Errorf("workload: scenario duration %g out of range", s.total)
	}
	if s.Warmup >= s.total {
		return fmt.Errorf("workload: warmup %g is not shorter than the scenario duration %g", s.Warmup, s.total)
	}
	// Normalize class weights.
	if len(s.Classes) > 0 {
		sum := 0.0
		for i := range s.Classes {
			sum += s.Classes[i].Weight
		}
		for i := range s.Classes {
			s.Classes[i].Weight /= sum
		}
	}
	return nil
}

// finalize computes a phase's derived sampling parameters and event
// boundary table.
func (p *Phase) finalize() {
	p.Arrivals.batch = p.Arrivals.MeanBatch()
	h := &p.Holding
	switch h.Kind {
	case "pareto":
		h.scale = h.Mean * (h.Shape - 1) / h.Shape
	case "lognormal":
		h.mu = math.Log(h.Mean) - h.Sigma*h.Sigma/2
	}
	seen := map[float64]bool{}
	p.edges = p.edges[:0]
	add := func(t float64) {
		if t > 0 && t < p.Duration && !seen[t] {
			seen[t] = true
			p.edges = append(p.edges, t)
		}
	}
	for _, ev := range p.Events {
		add(ev.At)
		if ev.Kind == "flash" {
			add(ev.At + ev.Width)
		}
	}
	// Insertion sort: MaxEvents is tiny.
	for i := 1; i < len(p.edges); i++ {
		for j := i; j > 0 && p.edges[j] < p.edges[j-1]; j-- {
			p.edges[j], p.edges[j-1] = p.edges[j-1], p.edges[j]
		}
	}
}

// eventMult returns the product of the phase's step/flash multipliers
// active at absolute time t.
func (p *Phase) eventMult(t float64) float64 {
	rel := t - p.Start
	m := 1.0
	for _, ev := range p.Events {
		switch ev.Kind {
		case "step":
			if rel >= ev.At {
				m *= ev.Mult
			}
		case "flash":
			if rel >= ev.At && rel < ev.At+ev.Width {
				m *= ev.Mult
			}
		}
	}
	return m
}

// nextEdge returns the earliest absolute event boundary strictly after t,
// or the phase end if none remains.
func (p *Phase) nextEdge(t float64) float64 {
	for _, e := range p.edges {
		if p.Start+e > t {
			return p.Start + e
		}
	}
	return p.Start + p.Duration
}
