package policy

import (
	"fmt"
	"sync/atomic"
)

// Tiered admits by class against a priority cascade of occupancy
// thresholds over one shared flow counter: sheddable traffic is admitted
// only while the link is below sheddableMax, standard traffic below
// standardMax, and critical traffic up to the full kmax bound — so as load
// rises, sheddable flows are denied first, then standard, and critical
// flows keep the headroom between standardMax and kmax to themselves (the
// critical/standard/sheddable template of SNIPPETS.md Snippet 3, with the
// load signal being the link's own occupancy rather than an external
// monitor).
//
// Each class claims from the one counter against that class's threshold,
// so the no-over-admit invariant holds per class and overall: Active can
// never exceed kmax, and a class-c flow is never admitted at or above
// limits[c]. The reserved wire class 3 is treated as sheddable. With
// standardMax == sheddableMax == kmax the policy is exactly Counting.
type Tiered struct {
	counter
	limits  [NumClasses]int64
	denials [NumClasses]atomic.Uint64
}

// NewTiered returns a tiered policy on a link of the given capacity with
// per-class occupancy thresholds. Thresholds must satisfy
// 1 ≤ sheddableMax ≤ standardMax ≤ kmax.
func NewTiered(capacity float64, kmax, standardMax, sheddableMax int) (*Tiered, error) {
	p := &Tiered{}
	if err := p.init(capacity, kmax); err != nil {
		return nil, err
	}
	if sheddableMax < 1 || sheddableMax > standardMax || standardMax > kmax {
		return nil, fmt.Errorf("policy: tier thresholds need 1 ≤ sheddable (%d) ≤ standard (%d) ≤ kmax (%d)",
			sheddableMax, standardMax, kmax)
	}
	p.limits[ClassStandard] = int64(standardMax)
	p.limits[ClassCritical] = int64(kmax)
	p.limits[ClassSheddable] = int64(sheddableMax)
	p.limits[3] = int64(sheddableMax) // reserved class: most conservative tier
	return p, nil
}

// Name implements Policy.
func (p *Tiered) Name() string { return "tiered" }

// Limit is the admission threshold for one class.
func (p *Tiered) Limit(class uint8) int { return int(p.limits[class%NumClasses]) }

// Admit implements Policy.
func (p *Tiered) Admit(now int64, flowID uint64, rate float64, class uint8) Decision {
	_, d := p.AdmitN(now, rate, class, 1)
	return d
}

// AdmitN implements Policy: the counter is claimed at the class's own
// threshold, and the denied remainder lands in that class's denial tally
// exactly as n single Admits would record it.
func (p *Tiered) AdmitN(now int64, rate float64, class uint8, n int) (int, Decision) {
	j, d := p.claim(p.limits[class%NumClasses], n)
	if j < n {
		p.denials[class%NumClasses].Add(uint64(n - j))
	}
	return j, d
}

// Gauges implements Instrumented.
func (p *Tiered) Gauges() []Gauge {
	return []Gauge{
		{Name: "denied_standard", Help: "Standard-class denials.", Value: func() float64 {
			return float64(p.denials[ClassStandard].Load())
		}},
		{Name: "denied_critical", Help: "Critical-class denials.", Value: func() float64 {
			return float64(p.denials[ClassCritical].Load())
		}},
		{Name: "denied_sheddable", Help: "Sheddable-class denials (reserved class 3 included).", Value: func() float64 {
			return float64(p.denials[ClassSheddable].Load() + p.denials[3].Load())
		}},
	}
}
