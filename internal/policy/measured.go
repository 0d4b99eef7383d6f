package policy

import (
	"fmt"
	"math"
	"sync"
)

// Measured is measurement-based admission: instead of trusting the
// configured kmax alone, it smooths the link's own observed occupancy with
// an exponentially weighted moving average over a time window tau and
// admits a request only while the smoothed occupancy leaves room under a
// target (the capacity-region-oblivious style of admission control in
// PAPERS.md: act on what the link measures, not on what the operator
// declared). The estimate is a gate in front of the same counter Counting
// claims at kmax — it can only make the policy more conservative than
// Counting, never less, so the no-over-admit invariant is inherited
// unchanged.
//
// The EWMA update ewma += (1 - exp(-dt/tau)) · (active - ewma) is
// time-correct for irregular observation instants: back-to-back bursts
// barely move the estimate while a quiet tau drags it to the current
// occupancy. Estimator state is mutex-guarded (two words, a handful of
// float ops); the admission counter itself stays atomic.
//
// With target ≥ kmax + 1 the smoothed gate can never bind (the EWMA of a
// quantity bounded by kmax is bounded by kmax), and the policy reduces
// exactly to Counting — the calibration corner the sweep harness
// cross-validates against the analytical model.
type Measured struct {
	counter
	target float64
	tauNs  float64

	mu     sync.Mutex
	ewma   float64
	lastNs int64
}

// NewMeasured returns a measurement-based policy: a hard bound of kmax
// concurrent flows, additionally gated on the EWMA occupancy (window tau,
// in seconds) staying below target after admitting one more flow.
func NewMeasured(capacity float64, kmax int, target, tau float64) (*Measured, error) {
	p := &Measured{target: target, tauNs: tau * 1e9}
	if err := p.init(capacity, kmax); err != nil {
		return nil, err
	}
	if !(target > 0) || math.IsInf(target, 0) {
		return nil, fmt.Errorf("policy: occupancy target must be positive and finite, got %v", target)
	}
	if !(tau > 0) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("policy: averaging window tau must be positive and finite, got %v", tau)
	}
	return p, nil
}

// Name implements Policy.
func (p *Measured) Name() string { return "measured" }

// Admit implements Policy.
func (p *Measured) Admit(now int64, flowID uint64, rate float64, class uint8) Decision {
	_, d := p.AdmitN(now, rate, class, 1)
	return d
}

// AdmitN implements Policy. The gate is read once: at one instant the
// estimate cannot move, so n single requests would all pass it or all
// fail it. A run that passes is cut at kmax by the counter.
func (p *Measured) AdmitN(now int64, rate float64, class uint8, n int) (int, Decision) {
	if p.observe(now)+1 > p.target {
		return 0, Decision{Load: float64(p.active.Load())}
	}
	return p.counter.AdmitN(now, rate, class, n)
}

// observe folds the current occupancy into the EWMA and returns the
// estimate. Non-advancing clocks (dt ≤ 0) leave the estimate untouched, so
// clockless callers see a permanently optimistic estimator rather than a
// corrupted one.
func (p *Measured) observe(now int64) float64 {
	a := float64(p.active.Load())
	p.mu.Lock()
	if now > p.lastNs {
		w := 1 - math.Exp(-float64(now-p.lastNs)/p.tauNs)
		p.ewma += w * (a - p.ewma)
		p.lastNs = now
	}
	est := p.ewma
	p.mu.Unlock()
	return est
}

// Release implements Policy.
func (p *Measured) Release(now int64, rate float64) { p.ReleaseN(now, rate, 1) }

// ReleaseN implements Policy. The departures are folded into the
// estimator so freed capacity is observed without waiting for the next
// arrival.
func (p *Measured) ReleaseN(now int64, rate float64, n int) {
	p.counter.ReleaseN(now, rate, n)
	p.observe(now)
}

// Occupancy returns the current smoothed occupancy estimate.
func (p *Measured) Occupancy() float64 {
	p.mu.Lock()
	est := p.ewma
	p.mu.Unlock()
	return est
}

// Gauges implements Instrumented.
func (p *Measured) Gauges() []Gauge {
	return []Gauge{
		{Name: "ewma_occupancy", Help: "Smoothed (EWMA) occupancy estimate driving admission.", Value: p.Occupancy},
		{Name: "occupancy_target", Help: "Configured smoothed-occupancy admission target.", Value: func() float64 {
			return p.target
		}},
	}
}
