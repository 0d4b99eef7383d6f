package core

import (
	"fmt"
	"math"

	"beqos/internal/numeric"
)

// Provision is the outcome of the variable capacity model (§4): the
// welfare-maximizing capacity C(p) at unit bandwidth price p, and the
// resulting welfare W(p) = V(C(p)) − p·C(p).
type Provision struct {
	// Price is the unit bandwidth price p.
	Price float64
	// Capacity is the welfare-maximizing capacity C(p).
	Capacity float64
	// Welfare is W(p) = V(C(p)) − p·C(p).
	Welfare float64
}

// MaximizeWelfare maximizes value(C) − p·C over C ≥ 0, where value is an
// architecture's total-utility function bounded above by vmax (for π ≤ 1,
// vmax = k̄). The optimum lies in [0, vmax/p]; a log-spaced scan plus local
// refinement handles objectives that are stepped (rigid utilities) or span
// several decades of capacity. The continuum model shares it, as it shares
// the rest of the §4 welfare machinery.
func MaximizeWelfare(value func(float64) float64, p, vmax float64) (Provision, error) {
	if !(p > 0) {
		return Provision{}, fmt.Errorf("core: bandwidth price must be positive, got %g", p)
	}
	hi := vmax / p
	if hi < 1 {
		hi = 1
	}
	obj := func(c float64) float64 { return value(c) - p*c }
	c, w := numeric.MaxScanLog(obj, 1e-3, hi, 320, 1e-6)
	if w <= 0 {
		// Providing no capacity (zero welfare) beats any paid capacity.
		return Provision{Price: p}, nil
	}
	return Provision{Price: p, Capacity: c, Welfare: w}, nil
}

// ProvisionBestEffort returns the best-effort-only provisioning decision at
// price p: C_B(p) and W_B(p).
func (m *Model) ProvisionBestEffort(p float64) (Provision, error) {
	return MaximizeWelfare(m.TotalBestEffort, p, m.mean)
}

// ProvisionReservation returns the reservation-capable provisioning decision
// at price p: C_R(p) and W_R(p).
func (m *Model) ProvisionReservation(p float64) (Provision, error) {
	return MaximizeWelfare(m.TotalReservation, p, m.mean)
}

// GammaEqualize returns the equalizing price ratio γ(p) = p̂/p, where p̂ is
// the bandwidth price at which the reservation-capable network's welfare
// falls to the best-effort network's welfare at price p:
// W_R(p̂) = W_B(p). γ quantifies how much more expensive
// reservation-capable bandwidth may be (e.g. due to architectural
// complexity) before best-effort becomes the more cost-effective choice.
//
// γ(p) ≥ 1 always (reservations weakly dominate at equal price). If both
// welfares are zero at p (bandwidth too expensive for either architecture),
// γ is reported as 1.
func (m *Model) GammaEqualize(p float64) (float64, error) {
	return GammaFromValues(m.TotalBestEffort, m.TotalReservation, p, m.mean)
}

// GammaFromValues computes the equalizing price ratio γ(p) for arbitrary
// architecture total-utility functions (best-effort and reservation), both
// bounded above by vmax: the GammaEqualize of the model, of its sampling
// and retrying extensions and of the continuum quadrature model.
func GammaFromValues(valueB, valueR func(float64) float64, p, vmax float64) (float64, error) {
	pb, err := MaximizeWelfare(valueB, p, vmax)
	if err != nil {
		return 0, err
	}
	if pb.Welfare <= 0 {
		return 1, nil
	}
	// W_R is continuous and strictly decreasing in price while positive;
	// W_R(p) ≥ W_B(p), so the equalizing price is ≥ p.
	g := func(price float64) float64 {
		pr, err := MaximizeWelfare(valueR, price, vmax)
		if err != nil {
			return math.NaN()
		}
		return pr.Welfare - pb.Welfare
	}
	if g(p) < 0 {
		// Numerical degeneracy (the two architectures coincide): γ = 1.
		return 1, nil
	}
	phat, err := numeric.Root(g, p, 2*p, 1e9*p, 1e-9*p)
	if err != nil {
		return 0, fmt.Errorf("core: equalizing price at p=%g: %w", p, err)
	}
	return phat / p, nil
}
