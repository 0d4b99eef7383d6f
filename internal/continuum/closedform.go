package continuum

import (
	"fmt"
	"math"

	"beqos/internal/core"
	"beqos/internal/numeric"
)

// ExpRigid is the paper's closed-form continuum case: exponential load
// density p(k) = β e^(−βk) with rigid applications (b̂ = 1, kmax(C) = C).
type ExpRigid struct {
	// Beta is the load decay rate; the mean load is 1/β.
	Beta float64
}

// NewExpRigid returns the case with mean load kbar (β = 1/k̄).
func NewExpRigid(kbar float64) (ExpRigid, error) {
	if !(kbar > 0) {
		return ExpRigid{}, fmt.Errorf("continuum: mean load must be positive, got %g", kbar)
	}
	return ExpRigid{Beta: 1 / kbar}, nil
}

// BestEffort returns B(C) = 1 − e^(−βC)(1 + βC).
func (e ExpRigid) BestEffort(c float64) float64 {
	if c <= 0 {
		return 0
	}
	bc := e.Beta * c
	return 1 - math.Exp(-bc)*(1+bc)
}

// Reservation returns R(C) = 1 − e^(−βC).
func (e ExpRigid) Reservation(c float64) float64 {
	if c <= 0 {
		return 0
	}
	return -math.Expm1(-e.Beta * c)
}

// PerformanceGap returns δ(C) = βC·e^(−βC).
func (e ExpRigid) PerformanceGap(c float64) float64 {
	if c <= 0 {
		return 0
	}
	bc := e.Beta * c
	return bc * math.Exp(-bc)
}

// BandwidthGap returns Δ(C), the solution of βΔ = ln(1 + β(C + Δ)); it
// grows like ln(βC)/β for large C even though δ(C) vanishes.
func (e ExpRigid) BandwidthGap(c float64) (float64, error) {
	if c <= 0 {
		return 0, nil
	}
	f := func(d float64) float64 {
		return e.Beta*d - math.Log1p(e.Beta*(c+d))
	}
	d, err := numeric.Root(f, 0, 2/e.Beta*(1+math.Log1p(e.Beta*c)), math.Inf(1), 1e-12*(1+c))
	if err != nil {
		return 0, fmt.Errorf("continuum: bandwidth gap diverges at C=%g: %w", c, err)
	}
	return d, nil
}

// ProvisionBestEffort returns the §4 closed form: the optimal capacity
// solves p = βC·e^(−βC), i.e. βC = h(p) with h the largest root of
// h·e^(−h) = p (the −W₋₁ branch of Lambert W), giving
// W_B(p) = (1/β)(1 − p − p/h − p·h).
func (e ExpRigid) ProvisionBestEffort(p float64) (core.Provision, error) {
	if !(p > 0) {
		return core.Provision{}, fmt.Errorf("continuum: price must be positive, got %g", p)
	}
	if p >= 1/math.E {
		// No capacity recovers its cost: δV/δC = βCe^(−βC) ≤ 1/e < p.
		return core.Provision{Price: p}, nil
	}
	h := -numeric.LambertWm1(-p)
	c := h / e.Beta
	w := (1 - p - p/h - p*h) / e.Beta
	if w <= 0 {
		return core.Provision{Price: p}, nil
	}
	return core.Provision{Price: p, Capacity: c, Welfare: w}, nil
}

// ProvisionReservation returns the §4 closed form: C = −ln(p)/β and
// W_R(p) = (1/β)(1 − p + p·ln p).
func (e ExpRigid) ProvisionReservation(p float64) (core.Provision, error) {
	if !(p > 0) {
		return core.Provision{}, fmt.Errorf("continuum: price must be positive, got %g", p)
	}
	if p >= 1 {
		return core.Provision{Price: p}, nil
	}
	c := -math.Log(p) / e.Beta
	w := (1 - p + p*math.Log(p)) / e.Beta
	return core.Provision{Price: p, Capacity: c, Welfare: w}, nil
}

// GammaEqualize solves the paper's relation
// γ(1 − ln γ − ln p) = 1 + 1/h(p) + h(p) for the equalizing price ratio.
// γ(p) → 1 as p → 0: for exponential loads, cheap bandwidth erases the
// reservation advantage.
func (e ExpRigid) GammaEqualize(p float64) (float64, error) {
	pb, err := e.ProvisionBestEffort(p)
	if err != nil {
		return 0, err
	}
	if pb.Welfare <= 0 {
		return 1, nil
	}
	// Solve W_R(γp) = W_B(p) directly; monotone decreasing in γ.
	f := func(gamma float64) float64 {
		pr, perr := e.ProvisionReservation(gamma * p)
		if perr != nil {
			return math.NaN()
		}
		return pr.Welfare - pb.Welfare
	}
	gamma, err := numeric.Root(f, 1, 2, 1e9, 1e-12)
	if err != nil {
		return 0, fmt.Errorf("continuum: γ bracket exceeded at p=%g: %w", p, err)
	}
	return gamma, nil
}

// ExpRamp is exponential load with the continuum adaptive (ramp) utility of
// parameter a ∈ (0, 1): π is 0 below a, linear on [a, 1], 1 above.
type ExpRamp struct {
	Beta float64
	A    float64
}

// NewExpRamp returns the case with mean load kbar and adaptivity a.
func NewExpRamp(kbar, a float64) (ExpRamp, error) {
	if !(kbar > 0) {
		return ExpRamp{}, fmt.Errorf("continuum: mean load must be positive, got %g", kbar)
	}
	if !(a > 0 && a < 1) {
		return ExpRamp{}, fmt.Errorf("continuum: ramp parameter must be in (0, 1), got %g", a)
	}
	return ExpRamp{Beta: 1 / kbar, A: a}, nil
}

// BestEffort returns
// B(C) = 1 − e^(−βC) − (a/(1−a))·(e^(−βC) − e^(−βC/a)).
func (e ExpRamp) BestEffort(c float64) float64 {
	if c <= 0 {
		return 0
	}
	ebc := math.Exp(-e.Beta * c)
	ebca := math.Exp(-e.Beta * c / e.A)
	return 1 - ebc - e.A/(1-e.A)*(ebc-ebca)
}

// Reservation returns R(C) = 1 − e^(−βC): identical to the rigid case,
// since kmax(C) = C and admitted flows all operate at b ≥ 1.
func (e ExpRamp) Reservation(c float64) float64 {
	if c <= 0 {
		return 0
	}
	return -math.Expm1(-e.Beta * c)
}

// PerformanceGap returns δ(C) = (a/(1−a))·(e^(−βC) − e^(−βC/a)).
func (e ExpRamp) PerformanceGap(c float64) float64 {
	if c <= 0 {
		return 0
	}
	return e.A / (1 - e.A) * (math.Exp(-e.Beta*c) - math.Exp(-e.Beta*c/e.A))
}

// BandwidthGap solves B(C+Δ) = R(C). For large C it converges to the
// constant −ln(1−a)/β — adaptivity changes the exponential case
// qualitatively (the rigid gap grows logarithmically forever). The equation
// is solved in loss space (1−B and 1−R), which stays well conditioned even
// when both utilities are within machine epsilon of 1:
//
//	βΔ = ln(1 + (a/(1−a))·(1 − e^(−β(C+Δ)(1−a)/a)))
func (e ExpRamp) BandwidthGap(c float64) (float64, error) {
	if c <= 0 {
		return 0, nil
	}
	f := func(d float64) float64 {
		ramp := e.A / (1 - e.A) * (-math.Expm1(-e.Beta * (c + d) * (1 - e.A) / e.A))
		return e.Beta*d - math.Log1p(ramp)
	}
	d, err := numeric.Root(f, 0, (1-math.Log(1-e.A))/e.Beta, math.Inf(1), 1e-12*(1+c))
	if err != nil {
		return 0, fmt.Errorf("continuum: bandwidth gap diverges at C=%g: %w", c, err)
	}
	return d, nil
}

// GapLimit returns lim_{C→∞} Δ(C) = −ln(1−a)/β.
func (e ExpRamp) GapLimit() float64 { return -math.Log(1-e.A) / e.Beta }

// AlgRigid is the paper's heavy-tailed continuum case: algebraic load
// density p(k) = (z−1)k^(−z) on [1, ∞) with rigid applications.
// The mean load is k̄ = (z−1)/(z−2).
type AlgRigid struct {
	Z float64
}

// NewAlgRigid returns the case with tail power z > 2.
func NewAlgRigid(z float64) (AlgRigid, error) {
	if !(z > 2) {
		return AlgRigid{}, fmt.Errorf("continuum: tail power must exceed 2, got %g", z)
	}
	return AlgRigid{Z: z}, nil
}

// Mean returns k̄ = (z−1)/(z−2).
func (a AlgRigid) Mean() float64 { return (a.Z - 1) / (a.Z - 2) }

// BestEffort returns B(C) = 1 − C^(2−z) for C ≥ 1.
func (a AlgRigid) BestEffort(c float64) float64 {
	if c <= 1 {
		return 0
	}
	return 1 - math.Pow(c, 2-a.Z)
}

// Reservation returns R(C) = 1 − C^(2−z)/(z−1) for C ≥ 1.
func (a AlgRigid) Reservation(c float64) float64 {
	if c <= 1 {
		return 0
	}
	return 1 - math.Pow(c, 2-a.Z)/(a.Z-1)
}

// PerformanceGap returns δ(C) = C^(2−z)·(z−2)/(z−1).
func (a AlgRigid) PerformanceGap(c float64) float64 {
	if c <= 1 {
		return 0
	}
	return math.Pow(c, 2-a.Z) * (a.Z - 2) / (a.Z - 1)
}

// BandwidthGap returns the paper's linear law
// Δ(C) = C·((z−1)^(1/(z−2)) − 1): unlike the exponential case, the extra
// bandwidth needed grows in proportion to capacity itself.
func (a AlgRigid) BandwidthGap(c float64) float64 {
	if c <= 1 {
		return 0
	}
	return c * (a.GapRatio() - 1)
}

// GapRatio returns (C+Δ)/C = (z−1)^(1/(z−2)), which is also the p → 0
// limit of γ(p). As z → 2⁺ it approaches e — the paper's conjectured
// worst-case asymptotic advantage of reservations.
func (a AlgRigid) GapRatio() float64 {
	return math.Pow(a.Z-1, 1/(a.Z-2))
}

// ProvisionBestEffort returns the closed form: C = ((z−1)/p)^(1/(z−1)) and
// the corresponding welfare.
func (a AlgRigid) ProvisionBestEffort(p float64) (core.Provision, error) {
	if !(p > 0) {
		return core.Provision{}, fmt.Errorf("continuum: price must be positive, got %g", p)
	}
	c := math.Pow((a.Z-1)/p, 1/(a.Z-1))
	if c <= 1 {
		return core.Provision{Price: p}, nil
	}
	w := a.Mean()*a.BestEffort(c) - p*c
	if w <= 0 {
		return core.Provision{Price: p}, nil
	}
	return core.Provision{Price: p, Capacity: c, Welfare: w}, nil
}

// ProvisionReservation returns the closed form: C = p^(−1/(z−1)) and
// W_R(p) = k̄ − p^((z−2)/(z−1))·(z−1)/(z−2).
func (a AlgRigid) ProvisionReservation(p float64) (core.Provision, error) {
	if !(p > 0) {
		return core.Provision{}, fmt.Errorf("continuum: price must be positive, got %g", p)
	}
	c := math.Pow(p, -1/(a.Z-1))
	if c <= 1 {
		return core.Provision{Price: p}, nil
	}
	w := a.Mean() - math.Pow(p, (a.Z-2)/(a.Z-1))*(a.Z-1)/(a.Z-2)
	if w <= 0 {
		return core.Provision{Price: p}, nil
	}
	return core.Provision{Price: p, Capacity: c, Welfare: w}, nil
}

// GammaEqualize solves W_R(γp) = W_B(p). For small p it approaches the
// constant (z−1)^(1/(z−2)) — the advantage does not vanish with cheap
// bandwidth, unlike the exponential and Poisson cases.
func (a AlgRigid) GammaEqualize(p float64) (float64, error) {
	pb, err := a.ProvisionBestEffort(p)
	if err != nil {
		return 0, err
	}
	if pb.Welfare <= 0 {
		return 1, nil
	}
	f := func(gamma float64) float64 {
		pr, perr := a.ProvisionReservation(gamma * p)
		if perr != nil {
			return math.NaN()
		}
		return pr.Welfare - pb.Welfare
	}
	gamma, err := numeric.Root(f, 1, 2, 1e9, 1e-12)
	if err != nil {
		return 0, fmt.Errorf("continuum: γ bracket exceeded at p=%g: %w", p, err)
	}
	return gamma, nil
}

// AlgRamp is algebraic load with the ramp utility of parameter a.
type AlgRamp struct {
	Z float64
	A float64
}

// NewAlgRamp returns the case with tail power z > 2 and adaptivity
// a ∈ (0, 1).
func NewAlgRamp(z, a float64) (AlgRamp, error) {
	if !(z > 2) {
		return AlgRamp{}, fmt.Errorf("continuum: tail power must exceed 2, got %g", z)
	}
	if !(a > 0 && a < 1) {
		return AlgRamp{}, fmt.Errorf("continuum: ramp parameter must be in (0, 1), got %g", a)
	}
	return AlgRamp{Z: z, A: a}, nil
}

// Mean returns k̄ = (z−1)/(z−2).
func (r AlgRamp) Mean() float64 { return (r.Z - 1) / (r.Z - 2) }

// rampHead returns E = [(1−a^(z−1)) − a·k̄·(1−a^(z−2))]/(1−a), the ramp
// region's contribution coefficient: V_B(C) = k̄ − C^(2−z)·(k̄ − E).
func (r AlgRamp) rampHead() float64 {
	kbar := r.Mean()
	return ((1 - math.Pow(r.A, r.Z-1)) - r.A*kbar*(1-math.Pow(r.A, r.Z-2))) / (1 - r.A)
}

// BestEffort returns B(C) = 1 − C^(2−z)·(k̄ − E)/k̄ for C ≥ 1.
func (r AlgRamp) BestEffort(c float64) float64 {
	if c <= 1 {
		return 0
	}
	kbar := r.Mean()
	return 1 - math.Pow(c, 2-r.Z)*(kbar-r.rampHead())/kbar
}

// Reservation returns R(C) = 1 − C^(2−z)/(z−1), as in the rigid case.
func (r AlgRamp) Reservation(c float64) float64 {
	if c <= 1 {
		return 0
	}
	return 1 - math.Pow(c, 2-r.Z)/(r.Z-1)
}

// PerformanceGap returns δ(C) = R(C) − B(C).
func (r AlgRamp) PerformanceGap(c float64) float64 {
	return r.Reservation(c) - r.BestEffort(c)
}

// GapRatio returns lim (C+Δ(C))/C = ((z−1)(k̄−E)/k̄)^(1/(z−2)), the
// adaptive analogue of the rigid (z−1)^(1/(z−2)). It ranges from 1 (a → 0)
// to the rigid value (a → 1).
func (r AlgRamp) GapRatio() float64 {
	kbar := r.Mean()
	return math.Pow((r.Z-1)*(kbar-r.rampHead())/kbar, 1/(r.Z-2))
}

// BandwidthGap returns the exact linear law Δ(C) = C·(GapRatio − 1)
// (exact for C/a ≥ ... all C with C ≥ 1 up to the ramp edge corrections,
// which vanish once C·(ratio−1) ≥ C(1/a−1); see package tests for the
// numeric cross-check).
func (r AlgRamp) BandwidthGap(c float64) float64 {
	if c <= 1 {
		return 0
	}
	return c * (r.GapRatio() - 1)
}

// GammaEqualize returns γ(p): both welfare curves have the form
// k̄ − A_i·p^((z−2)/(z−1)), so γ is the constant (A_B/A_R)^((z−1)/(z−2))
// whenever both architectures provision positively.
func (r AlgRamp) GammaEqualize(p float64) (float64, error) {
	kbar := r.Mean()
	head := kbar - r.rampHead()
	// W_B(p) = k̄ − A_B·p^((z−2)/(z−1)) with
	// A_B = ((z−2)·head)^(1/(z−1))·(z−1)/(z−2)·head^(... ): derive from
	// V_B = k̄ − C^(2−z)·head, optimal C = ((z−2)·head/p)^(1/(z−1)).
	z := r.Z
	cb := math.Pow((z-2)*head/p, 1/(z-1))
	wb := kbar - math.Pow(cb, 2-z)*head - p*cb
	if cb <= 1 || wb <= 0 {
		return 1, nil
	}
	ar, err := NewAlgRigid(z)
	if err != nil {
		return 0, err
	}
	f := func(gamma float64) float64 {
		pr, perr := ar.ProvisionReservation(gamma * p)
		if perr != nil {
			return math.NaN()
		}
		return pr.Welfare - wb
	}
	gamma, err := numeric.Root(f, 1, 2, 1e9, 1e-12)
	if err != nil {
		return 0, fmt.Errorf("continuum: γ bracket exceeded at p=%g: %w", p, err)
	}
	return gamma, nil
}
