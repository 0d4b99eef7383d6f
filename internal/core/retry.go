package core

import (
	"fmt"
	"math"
	"sync"

	"beqos/internal/dist"
	"beqos/internal/numeric"
)

// Retry is the paper's §5.2 extension: in the reservation-capable network a
// blocked flow does not give up (zero utility) but retries later, paying a
// utility penalty α per retry. Retries swell the offered load; the paper
// models the inflated load as the same distribution family with a larger
// mean L̂, determined self-consistently from the blocking it induces.
//
// A Retry caches equilibria and inflated distributions internally; the
// caches are guarded by a mutex, so a Retry is safe for concurrent use
// (equilibrium solves serialize, but the Model evaluations they feed do
// not).
type Retry struct {
	m     *Model
	fam   dist.Family
	alpha float64

	// mu guards every cache field below, including lastL.
	mu sync.Mutex
	// distCache memoizes WithMean results on a fine relative grid
	// (≈0.01%): the equilibrium solves visit smoothly varying means, and
	// family recalibration is the dominant cost.
	distCache  map[int64]dist.Discrete
	modelCache map[int64]*Model
	// eqCache memoizes equilibria by admission threshold, the only part of
	// the capacity that the fixed point depends on.
	eqCache map[int]FixedPoint
	eqErr   map[int]error
}

// NewRetry returns the retrying extension of the model with per-retry
// penalty alpha ≥ 0. The model's load distribution must belong to a
// mean-parameterized family (all the built-in distributions do).
func NewRetry(m *Model, alpha float64) (*Retry, error) {
	if !(alpha >= 0) {
		return nil, fmt.Errorf("core: retry penalty must be nonnegative, got %g", alpha)
	}
	fam, ok := dist.AsFamily(m.load)
	if !ok {
		return nil, fmt.Errorf("core: retry extension needs a mean-parameterized load family, got %T", m.load)
	}
	return &Retry{
		m: m, fam: fam, alpha: alpha,
		distCache:  make(map[int64]dist.Discrete),
		modelCache: make(map[int64]*Model),
		eqCache:    make(map[int]FixedPoint),
		eqErr:      make(map[int]error),
	}, nil
}

// Alpha returns the per-retry utility penalty.
func (rt *Retry) Alpha() float64 { return rt.alpha }

// Model returns the underlying basic model.
func (rt *Retry) Model() *Model { return rt.m }

// FixedPoint describes the self-consistent retry equilibrium at a capacity.
type FixedPoint struct {
	// EffectiveMean is L̂, the retry-inflated mean offered load.
	EffectiveMean float64
	// Blocking is θ, the per-attempt blocking rate at the inflated load.
	Blocking float64
	// Retries is D = θ/(1−θ), the expected number of retries per
	// original flow.
	Retries float64
}

// blockingRate returns the per-attempt blocking rate under load d with
// admission threshold kmax: E[(k − kmax)+]/E[k].
func blockingRate(d dist.Discrete, kmax int) float64 {
	if kmax <= 0 {
		return 1
	}
	blocked := d.TailMean(kmax) - float64(kmax)*d.TailProb(kmax)
	if blocked < 0 {
		blocked = 0
	}
	return blocked / d.Mean()
}

// meanKey quantizes a mean onto a fine relative grid for memoization.
func meanKey(mean float64) int64 {
	return int64(math.Round(math.Log(mean) * 8192))
}

// withMean returns the family recalibrated to (a quantized neighborhood of)
// the given mean. The caller must hold rt.mu.
func (rt *Retry) withMean(mean float64) (dist.Discrete, error) {
	key := meanKey(mean)
	if d, ok := rt.distCache[key]; ok {
		return d, nil
	}
	// Rebuild at the center of the quantization cell for determinism.
	center := math.Exp(float64(key) / 8192)
	d, err := rt.fam.WithMean(center)
	if err != nil {
		return nil, err
	}
	rt.distCache[key] = d
	return d, nil
}

// inflatedModel returns a Model over the quantized inflated distribution.
// The caller must hold rt.mu; core.New tabulates the inflated distribution,
// so every equilibrium's model gets the same O(1) evaluation paths as the
// base model's.
func (rt *Retry) inflatedModel(mean float64) (*Model, error) {
	key := meanKey(mean)
	if m, ok := rt.modelCache[key]; ok {
		return m, nil
	}
	d, err := rt.withMean(mean)
	if err != nil {
		return nil, err
	}
	m, err := New(d, rt.m.util)
	if err != nil {
		return nil, err
	}
	rt.modelCache[key] = m
	return m, nil
}

// Equilibrium solves the retry fixed point at capacity c:
// L̂ = k̄·(1 + D(L̂)) with D = θ/(1−θ) and θ the blocking rate of the
// family recalibrated to mean L̂. It fails when blocking is so severe that
// retries snowball without bound (a retry storm). Results are cached by
// admission threshold.
func (rt *Retry) Equilibrium(c float64) (FixedPoint, error) {
	kmax := rt.m.KMax(c)
	if kmax <= 0 {
		return FixedPoint{}, fmt.Errorf("core: capacity %g admits no flows; retry storm", c)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if fp, ok := rt.eqCache[kmax]; ok {
		return fp, nil
	}
	if err, ok := rt.eqErr[kmax]; ok {
		return FixedPoint{}, err
	}
	fp, err := rt.solveEquilibrium(kmax)
	if err != nil {
		rt.eqErr[kmax] = err
		return FixedPoint{}, err
	}
	rt.eqCache[kmax] = fp
	return fp, nil
}

// solveEquilibrium runs the damped fixed-point iteration; the caller must
// hold rt.mu.
func (rt *Retry) solveEquilibrium(kmax int) (FixedPoint, error) {
	thetaAt := func(l float64) (float64, error) {
		d, err := rt.withMean(l)
		if err != nil {
			return 0, err
		}
		return blockingRate(d, kmax), nil
	}
	// Damped fixed-point iteration L ← k̄(1 + D(L)). Starting from k̄ for
	// every threshold keeps the solve deterministic regardless of the order
	// capacities are visited (a warm start from a previous equilibrium
	// would make the converged value depend on solve order within the
	// iteration tolerance); converges quickly away from retry storms.
	l := rt.m.mean
	converged := false
	var theta float64
	for i := 0; i < 60; i++ {
		th, err := thetaAt(l)
		if err != nil {
			return FixedPoint{}, err
		}
		if th >= 0.95 {
			break // near-storm: switch to the robust bracketed solve
		}
		next := rt.m.mean * (1 + th/(1-th))
		if math.Abs(next-l) <= 1e-6*l {
			theta, l, converged = th, next, true
			break
		}
		l = 0.5*l + 0.5*next
	}
	if !converged {
		// Bracketed fallback: g(L) = L − k̄(1 + D(L)) crosses zero from
		// below at the fixed point (if one exists). Beyond ~8000 retries
		// per flow (L past 2^15·k̄) the equilibrium is physically
		// meaningless: call it a storm.
		g := func(l float64) float64 {
			th, err := thetaAt(l)
			if err != nil || th >= 1 {
				return math.Inf(-1)
			}
			return l - rt.m.mean*(1+th/(1-th))
		}
		lo := rt.m.mean
		var err error
		l, err = numeric.Root(g, lo, 2*lo, 32768*lo, 1e-6*lo)
		if err != nil {
			return FixedPoint{}, fmt.Errorf("core: retry storm at kmax=%d: %w", kmax, err)
		}
		theta, err = thetaAt(l)
		if err != nil {
			return FixedPoint{}, err
		}
		if theta >= 1 {
			return FixedPoint{}, fmt.Errorf("core: retry storm at kmax=%d", kmax)
		}
	}
	return FixedPoint{EffectiveMean: l, Blocking: theta, Retries: theta / (1 - theta)}, nil
}

// Reservation returns the per-original-flow utility of the
// reservation-capable network with retries:
//
//	R̃(C) = (1 + D)·R_{L̂}(C) − α·D
//
// where R_{L̂} is the basic per-attempt reservation utility under the
// inflated load. (Each original flow makes 1 + D attempts on average,
// exactly one of which is admitted; the per-attempt utility absorbs
// blocking, and each retry costs α.)
func (rt *Retry) Reservation(c float64) (float64, error) {
	fp, err := rt.Equilibrium(c)
	if err != nil {
		return 0, err
	}
	rt.mu.Lock()
	inflated, err := rt.inflatedModel(fp.EffectiveMean)
	rt.mu.Unlock()
	if err != nil {
		return 0, err
	}
	r := inflated.Reservation(c)
	return (1+fp.Retries)*r - rt.alpha*fp.Retries, nil
}

// BestEffort returns B(C): best-effort flows are never blocked, so retries
// do not arise and the basic model applies unchanged.
func (rt *Retry) BestEffort(c float64) float64 {
	return rt.m.BestEffort(c)
}

// PerformanceGap returns δ̃(C) = R̃(C) − B(C).
func (rt *Retry) PerformanceGap(c float64) (float64, error) {
	r, err := rt.Reservation(c)
	if err != nil {
		return 0, err
	}
	return r - rt.m.BestEffort(c), nil
}

// BandwidthGap returns Δ̃(C) solving B(C + Δ) = R̃(C).
func (rt *Retry) BandwidthGap(c float64) (float64, error) {
	r, err := rt.Reservation(c)
	if err != nil {
		return 0, err
	}
	return InvertGap(rt.m.BestEffort, r, c)
}

// TotalReservation returns k̄·R̃(C) for the welfare model; capacities in a
// retry storm are worth zero welfare.
func (rt *Retry) TotalReservation(c float64) float64 {
	r, err := rt.Reservation(c)
	if err != nil {
		return 0
	}
	return rt.m.mean * r
}

// ProvisionReservation returns C_R(p) and W_R(p) under retries.
func (rt *Retry) ProvisionReservation(p float64) (Provision, error) {
	return MaximizeWelfare(rt.TotalReservation, p, rt.m.mean)
}

// GammaEqualize returns the equalizing price ratio γ(p) with retries on the
// reservation side.
func (rt *Retry) GammaEqualize(p float64) (float64, error) {
	return GammaFromValues(rt.m.TotalBestEffort, rt.TotalReservation, p, rt.m.mean)
}
