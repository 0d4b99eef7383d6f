// Package continuum implements the continuum version of the variable-load
// model (Breslau & Shenker, SIGCOMM 1998, §3.2–§5): load is a continuous
// density p(k), k ∈ [0, ∞), which makes the model analytically tractable.
// The package provides both a generic quadrature-based evaluator (Numeric)
// and the paper's closed forms for every case it derives — exponential and
// algebraic loads crossed with rigid and piecewise-linear ("ramp") adaptive
// utilities — plus the asymptotic laws for the basic model and the sampling
// and retrying extensions. Closed forms and quadrature cross-validate each
// other in the package tests.
package continuum

import (
	"fmt"
	"math"
	"sort"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/numeric"
	"beqos/internal/utility"
)

// quadTol is the absolute quadrature tolerance for normalized utilities.
const quadTol = 1e-11

// Numeric evaluates the continuum model for an arbitrary continuous load
// density and utility function by adaptive quadrature.
type Numeric struct {
	load dist.Continuous
	util utility.Function
	// kmax returns the continuum admission threshold kmax(C).
	kmax func(c float64) float64
	mean float64
}

// NewNumeric returns a quadrature-based continuum model. kmax gives the
// continuum admission threshold (e.g. C for rigid and ramp utilities,
// C(τ+1)^(−1/τ) for the slow-tail family); pass nil for kmax(C) = C.
func NewNumeric(load dist.Continuous, util utility.Function, kmax func(c float64) float64) (*Numeric, error) {
	if load == nil || util == nil {
		return nil, fmt.Errorf("continuum: load and utility must be non-nil")
	}
	if kmax == nil {
		kmax = func(c float64) float64 { return c }
	}
	mean := load.Mean()
	if !(mean > 0) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("continuum: load mean must be positive and finite, got %g", mean)
	}
	return &Numeric{load: load, util: util, kmax: kmax, mean: mean}, nil
}

// MeanLoad returns the density's mean k̄.
func (n *Numeric) MeanLoad() float64 { return n.mean }

// integrate computes ∫ k·p(k)·π(C/k) dk over [lo, hi] (hi may be +Inf),
// splitting at the utility's kink points k = C and k = C/a-style breaks.
func (n *Numeric) integrate(c, lo, hi float64) float64 {
	f := func(k float64) float64 {
		if k <= 0 {
			return 0
		}
		return k * n.load.PDF(k) * n.util.Eval(c/k)
	}
	// Kink candidates: where the bandwidth share crosses the utility's
	// characteristic points b = 1 and (for ramps) b = a. Integrating in
	// pieces keeps the adaptive quadrature efficient and accurate.
	breaks := []float64{c}
	if r, ok := n.util.(utility.Ramp); ok {
		breaks = append(breaks, c/r.A)
	}
	if _, ok := n.util.(utility.SlowTail); ok {
		breaks = append(breaks, c) // π vanishes below b = 1, i.e. beyond k = C
	}
	pts := []float64{lo}
	for _, b := range breaks {
		if b > lo && (math.IsInf(hi, 1) || b < hi) {
			pts = append(pts, b)
		}
	}
	sort.Float64s(pts)
	var sum float64
	for i := 0; i+1 < len(pts); i++ {
		sum += numeric.Integrate(f, pts[i], pts[i+1], quadTol)
	}
	last := pts[len(pts)-1]
	if math.IsInf(hi, 1) {
		sum += numeric.IntegrateToInf(f, last, quadTol)
	} else if hi > last {
		sum += numeric.Integrate(f, last, hi, quadTol)
	}
	return sum
}

// BestEffort returns the normalized utility
// B(C) = (1/k̄)·∫ k·p(k)·π(C/k) dk.
func (n *Numeric) BestEffort(c float64) float64 {
	if c <= 0 {
		return 0
	}
	return n.integrate(c, 0, math.Inf(1)) / n.mean
}

// Reservation returns the normalized utility
// R(C) = (1/k̄)·(∫₀^kmax k·p(k)·π(C/k) dk + kmax·π(C/kmax)·P(K > kmax)).
func (n *Numeric) Reservation(c float64) float64 {
	if c <= 0 {
		return 0
	}
	km := n.kmax(c)
	if km <= 0 {
		return 0
	}
	head := n.integrate(c, 0, km)
	overflow := km * n.util.Eval(c/km) * n.load.TailProb(km)
	return (head + overflow) / n.mean
}

// PerformanceGap returns δ(C) = R(C) − B(C).
func (n *Numeric) PerformanceGap(c float64) float64 {
	return n.Reservation(c) - n.BestEffort(c)
}

// BandwidthGap returns Δ(C) solving B(C + Δ) = R(C).
func (n *Numeric) BandwidthGap(c float64) (float64, error) {
	return core.InvertGap(n.BestEffort, n.Reservation(c), c)
}

// TotalBestEffort returns V_B(C) = k̄·B(C) for the welfare model.
func (n *Numeric) TotalBestEffort(c float64) float64 { return n.mean * n.BestEffort(c) }

// TotalReservation returns V_R(C) = k̄·R(C).
func (n *Numeric) TotalReservation(c float64) float64 { return n.mean * n.Reservation(c) }

// ProvisionBestEffort returns the §4 provisioning decision for best-effort.
func (n *Numeric) ProvisionBestEffort(p float64) (core.Provision, error) {
	return core.MaximizeWelfare(n.TotalBestEffort, p, n.mean)
}

// ProvisionReservation returns the §4 provisioning decision for
// reservations.
func (n *Numeric) ProvisionReservation(p float64) (core.Provision, error) {
	return core.MaximizeWelfare(n.TotalReservation, p, n.mean)
}

// GammaEqualize returns the equalizing price ratio γ(p).
func (n *Numeric) GammaEqualize(p float64) (float64, error) {
	return core.GammaFromValues(n.TotalBestEffort, n.TotalReservation, p, n.mean)
}
