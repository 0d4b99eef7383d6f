package continuum

import (
	"fmt"
	"math"

	"beqos/internal/numeric"
)

// This file implements the §5 extensions in the continuum model, where
// they admit (near-)closed forms.
//
// Sampling (§5.1), rigid applications: a flow's S size-biased load samples
// are i.i.d. with CDF F_Q, and the flow performs at the worst one. For
// rigid applications a best-effort flow succeeds iff every sample is ≤ C,
// so B_S(C) = F_Q(C)^S = B(C)^S (the basic best-effort utility is exactly
// F_Q(C)). Reservations are unaffected by the extra samples: admitted
// flows never see an effective load above kmax = C, where π = 1 already,
// so R_S = R.
//
// Retrying (§5.2): the offered load inflates to the same density family
// with mean L̂ solving L̂ = k̄(1 + D), D = θ/(1−θ), θ the blocking rate at
// L̂; then R̃(C) = (1+D)·R_{L̂}(C) − αD.

// ExpRigidSampling is the continuum sampling model for exponential load and
// rigid applications.
type ExpRigidSampling struct {
	base ExpRigid
	s    int
}

// NewExpRigidSampling returns the S-sample case with mean load kbar.
func NewExpRigidSampling(kbar float64, s int) (ExpRigidSampling, error) {
	if s < 1 {
		return ExpRigidSampling{}, fmt.Errorf("continuum: sampling needs S ≥ 1, got %d", s)
	}
	base, err := NewExpRigid(kbar)
	if err != nil {
		return ExpRigidSampling{}, err
	}
	return ExpRigidSampling{base: base, s: s}, nil
}

// BestEffort returns B_S(C) = B(C)^S.
func (e ExpRigidSampling) BestEffort(c float64) float64 {
	return math.Pow(e.base.BestEffort(c), float64(e.s))
}

// Reservation returns R(C), unchanged by sampling for rigid applications.
func (e ExpRigidSampling) Reservation(c float64) float64 {
	return e.base.Reservation(c)
}

// PerformanceGap returns δ_S(C) = R(C) − B(C)^S; to first order in the
// tails it is e^(−βC)·(S(1+βC) − 1), the paper's law.
func (e ExpRigidSampling) PerformanceGap(c float64) float64 {
	return e.Reservation(c) - e.BestEffort(c)
}

// BandwidthGap solves B(C+Δ)^S = R(C) in loss space.
func (e ExpRigidSampling) BandwidthGap(c float64) (float64, error) {
	if c <= 0 {
		return 0, nil
	}
	// ln B_S = S·ln(1 − loss_B); target ln R = ln(1 − e^(−βC)).
	target := math.Log1p(-math.Exp(-e.base.Beta * c))
	f := func(d float64) float64 {
		bc := e.base.Beta * (c + d)
		lossB := math.Exp(-bc) * (1 + bc)
		return float64(e.s)*math.Log1p(-lossB) - target
	}
	d, err := numeric.Root(f, 0, math.Max(c, 1), 1e12, 1e-10*(1+c))
	if err != nil {
		return 0, fmt.Errorf("continuum: sampling gap diverges at C=%g: %w", c, err)
	}
	return d, nil
}

// AlgRigidSampling is the continuum sampling model for algebraic load and
// rigid applications.
type AlgRigidSampling struct {
	base AlgRigid
	s    int
}

// NewAlgRigidSampling returns the S-sample case with tail power z.
func NewAlgRigidSampling(z float64, s int) (AlgRigidSampling, error) {
	if s < 1 {
		return AlgRigidSampling{}, fmt.Errorf("continuum: sampling needs S ≥ 1, got %d", s)
	}
	base, err := NewAlgRigid(z)
	if err != nil {
		return AlgRigidSampling{}, err
	}
	return AlgRigidSampling{base: base, s: s}, nil
}

// BestEffort returns B_S(C) = (1 − C^(2−z))^S.
func (a AlgRigidSampling) BestEffort(c float64) float64 {
	return math.Pow(a.base.BestEffort(c), float64(a.s))
}

// Reservation returns R(C), unchanged by sampling.
func (a AlgRigidSampling) Reservation(c float64) float64 {
	return a.base.Reservation(c)
}

// PerformanceGap returns δ_S(C) ≈ C^(2−z)·(S − 1/(z−1)) for large C.
func (a AlgRigidSampling) PerformanceGap(c float64) float64 {
	return a.Reservation(c) - a.BestEffort(c)
}

// BandwidthGap solves B(C+Δ)^S = R(C); asymptotically
// (C+Δ)/C → (S(z−1))^(1/(z−2)), the paper's divergent-as-z→2⁺ ratio.
func (a AlgRigidSampling) BandwidthGap(c float64) (float64, error) {
	if c <= 1 {
		return 0, nil
	}
	target := math.Log(a.base.Reservation(c))
	f := func(d float64) float64 {
		return float64(a.s)*math.Log1p(-math.Pow(c+d, 2-a.base.Z)) - target
	}
	d, err := numeric.Root(f, 0, c*SamplingAlgRigidRatio(a.base.Z, a.s)*2, 1e15, 1e-10*(1+c))
	if err != nil {
		return 0, fmt.Errorf("continuum: sampling gap diverges at C=%g: %w", c, err)
	}
	return d, nil
}

// ExpRigidRetry is the continuum retry model for exponential load and rigid
// applications: blocked flows retry at penalty α, inflating the offered
// load self-consistently.
type ExpRigidRetry struct {
	kbar  float64
	alpha float64
}

// NewExpRigidRetry returns the case with mean load kbar and per-retry
// penalty alpha ≥ 0.
func NewExpRigidRetry(kbar, alpha float64) (ExpRigidRetry, error) {
	if !(kbar > 0) {
		return ExpRigidRetry{}, fmt.Errorf("continuum: mean load must be positive, got %g", kbar)
	}
	if !(alpha >= 0) {
		return ExpRigidRetry{}, fmt.Errorf("continuum: retry penalty must be nonnegative, got %g", alpha)
	}
	return ExpRigidRetry{kbar: kbar, alpha: alpha}, nil
}

// Equilibrium solves L̂ = k̄(1 + θ/(1−θ)) with θ(L) = e^(−C/L), the
// blocked-mass fraction of the exponential density with mean L. It fails
// in the retry-storm regime.
func (e ExpRigidRetry) Equilibrium(c float64) (lhat, theta float64, err error) {
	// Blocked fraction at mean L: E[(k−C)+]/L = e^(−C/L).
	g := func(l float64) float64 {
		th := math.Exp(-c / l)
		if th >= 1 {
			return math.Inf(-1)
		}
		return l - e.kbar*(1+th/(1-th))
	}
	// An L̂ past 2^15·k̄, some 8000 retries per flow, is a retry storm.
	lhat, err = numeric.Root(g, e.kbar, 2*e.kbar, 32768*e.kbar, 1e-10*e.kbar)
	if err != nil {
		return 0, 0, fmt.Errorf("continuum: retry storm at C=%g: %w", c, err)
	}
	return lhat, math.Exp(-c / lhat), nil
}

// Reservation returns R̃(C) = (1+D)(1 − e^(−C/L̂)) − αD; for large C it
// approaches 1 − α·e^(−βC), the paper's limit.
func (e ExpRigidRetry) Reservation(c float64) (float64, error) {
	lhat, theta, err := e.Equilibrium(c)
	if err != nil {
		return 0, err
	}
	d := theta / (1 - theta)
	r := -math.Expm1(-c / lhat)
	return (1+d)*r - e.alpha*d, nil
}

// BestEffort returns the basic B(C) (retries do not arise without
// blocking).
func (e ExpRigidRetry) BestEffort(c float64) float64 {
	base := ExpRigid{Beta: 1 / e.kbar}
	return base.BestEffort(c)
}

// PerformanceGap returns δ̃(C) = R̃(C) − B(C).
func (e ExpRigidRetry) PerformanceGap(c float64) (float64, error) {
	r, err := e.Reservation(c)
	if err != nil {
		return 0, err
	}
	return r - e.BestEffort(c), nil
}

// AlgRigidRetry is the continuum retry model for algebraic load and rigid
// applications, using the scale family p_L(k) = ((z−1)/s)(k/s)^(−z) for
// k ≥ s with s = L(z−2)/(z−1) (so the mean is L).
type AlgRigidRetry struct {
	z     float64
	kbar  float64
	alpha float64
}

// NewAlgRigidRetry returns the case with tail power z > 2, mean load kbar,
// and per-retry penalty alpha > 0 (α = 0 has no finite equilibrium in the
// asymptotic ratio, which diverges as ((z−1)/α)^(1/(z−2))).
func NewAlgRigidRetry(z, kbar, alpha float64) (AlgRigidRetry, error) {
	if !(z > 2) {
		return AlgRigidRetry{}, fmt.Errorf("continuum: tail power must exceed 2, got %g", z)
	}
	if !(kbar > 0) || !(alpha >= 0) {
		return AlgRigidRetry{}, fmt.Errorf("continuum: need kbar > 0 and alpha ≥ 0, got (%g, %g)", kbar, alpha)
	}
	return AlgRigidRetry{z: z, kbar: kbar, alpha: alpha}, nil
}

// scaledTheta returns the blocked-mass fraction at capacity c under the
// scale family with mean l: θ = (c/s)^(2−z)/(z−1) for c ≥ s.
func (a AlgRigidRetry) scaledTheta(c, l float64) float64 {
	s := l * (a.z - 2) / (a.z - 1)
	if c <= s {
		return 1
	}
	return math.Pow(c/s, 2-a.z) / (a.z - 1)
}

// Equilibrium solves the retry fixed point.
func (a AlgRigidRetry) Equilibrium(c float64) (lhat, theta float64, err error) {
	g := func(l float64) float64 {
		th := a.scaledTheta(c, l)
		if th >= 1 {
			return math.Inf(-1)
		}
		return l - a.kbar*(1+th/(1-th))
	}
	// An L̂ past 2^15·k̄ is a retry storm, as in ExpRigidRetry.
	lhat, err = numeric.Root(g, a.kbar, 2*a.kbar, 32768*a.kbar, 1e-10*a.kbar)
	if err != nil {
		return 0, 0, fmt.Errorf("continuum: retry storm at C=%g: %w", c, err)
	}
	return lhat, a.scaledTheta(c, lhat), nil
}

// Reservation returns R̃(C) under retries; for large C,
// R̃ ≈ 1 − α·C̃^(2−z)/(z−1) with C̃ the capacity in scaled units.
func (a AlgRigidRetry) Reservation(c float64) (float64, error) {
	lhat, theta, err := a.Equilibrium(c)
	if err != nil {
		return 0, err
	}
	d := theta / (1 - theta)
	// R at mean lhat: scale to the unit family. R_unit(x) = 1 − x^(2−z)/(z−1)
	// for x ≥ 1, with x = c/s.
	s := lhat * (a.z - 2) / (a.z - 1)
	x := c / s
	r := 0.0
	if x > 1 {
		r = 1 - math.Pow(x, 2-a.z)/(a.z-1)
	}
	return (1+d)*r - a.alpha*d, nil
}

// BestEffort returns the basic B(C) for the k̄-scaled algebraic family.
func (a AlgRigidRetry) BestEffort(c float64) float64 {
	s := a.kbar * (a.z - 2) / (a.z - 1)
	x := c / s
	if x <= 1 {
		return 0
	}
	return 1 - math.Pow(x, 2-a.z)
}

// BandwidthGap solves B(C+Δ) = R̃(C); asymptotically
// (C+Δ)/C → ((z−1)/α)^(1/(z−2)).
func (a AlgRigidRetry) BandwidthGap(c float64) (float64, error) {
	r, err := a.Reservation(c)
	if err != nil {
		return 0, err
	}
	if r >= 1 {
		return 0, fmt.Errorf("continuum: R̃(%g) = %g leaves no solvable gap", c, r)
	}
	f := func(d float64) float64 { return a.BestEffort(c+d) - r }
	d, err := numeric.Root(f, 0, c*(RetryAlgRigidRatio(a.z, math.Max(a.alpha, 1e-6))+1), 1e15, 1e-10*(1+c))
	if err != nil {
		return 0, fmt.Errorf("continuum: retry gap diverges at C=%g: %w", c, err)
	}
	return d, nil
}
