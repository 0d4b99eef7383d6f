// Package core implements the analytical models of Breslau & Shenker,
// "Best-Effort versus Reservations: A Simple Comparative Analysis"
// (SIGCOMM 1998): the fixed-load model (§2), the discrete variable-load
// model with its performance and bandwidth gaps (§3.1), the variable
// capacity (welfare) model (§4), and the sampling and retrying extensions
// (§5).
//
// Throughout, a Model couples a load distribution P(k) — the probability
// that k flows request service — with an application utility function π(b).
// A best-effort-only network admits every flow and splits capacity evenly;
// a reservation-capable network admits at most kmax(C) flows, the number
// maximizing total utility, and rejected flows receive zero bandwidth.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"beqos/internal/dist"
	"beqos/internal/numeric"
	"beqos/internal/utility"
)

// defaultTol is the absolute tolerance used for series truncation and root
// finding on normalized utilities (which lie in [0, 1]).
const defaultTol = 1e-10

// maxMemoEntries bounds each per-Model memoization cache. Sweeps, Brent
// inversions and welfare scans revisit far fewer points than this; the cap
// only guards pathological callers against unbounded growth.
const maxMemoEntries = 1 << 20

// memo is a concurrency-safe, size-capped memoization cache for pure
// float64-keyed evaluations.
type memo[V any] struct {
	m sync.Map
	n atomic.Int64
}

func (mc *memo[V]) get(c float64) (V, bool) {
	if v, ok := mc.m.Load(c); ok {
		return v.(V), true
	}
	var zero V
	return zero, false
}

func (mc *memo[V]) put(c float64, v V) V {
	if mc.n.Load() < maxMemoEntries {
		if _, loaded := mc.m.LoadOrStore(c, v); !loaded {
			mc.n.Add(1)
		}
	}
	return v
}

// Model is the paper's variable-load model: a single link whose offered
// load (number of flows) is drawn from a static probability distribution.
//
// A Model is safe for concurrent use by multiple goroutines: the load
// distribution is wrapped in an immutable tabulated decorator at
// construction, the utility functions are stateless, and the memoization
// caches below are concurrency-safe. Methods are pure functions of their
// arguments, so concurrent and sequential evaluation return bit-identical
// results regardless of interleaving.
type Model struct {
	load dist.Discrete
	util utility.Function
	mean float64
	// inelastic records whether the utility admits a finite kmax; when
	// false (elastic utilities) the reservation network admits everyone
	// and the two architectures coincide.
	inelastic bool
	// kcut is the summation index beyond which heavy-tailed loads switch
	// from term-by-term summation to an integral tail (see dist.RealPMF).
	// It is far past the bulk of the load mass, so the integrand is smooth
	// and slowly varying there.
	kcut int

	// Memoization caches: Brent inversions (BandwidthGap), welfare scans
	// (GammaEqualize) and grid sweeps re-evaluate the same capacities many
	// times; caching the pure results makes repeats O(1).
	kmaxMemo memo[int]
	beMemo   memo[float64]
	resvMemo memo[float64]
}

// New returns a variable-load model for the given load distribution and
// utility function. The load is wrapped in a dist.Tabulate decorator, so
// every per-term PMF/CDF/tail query in the series below is an array load.
func New(load dist.Discrete, util utility.Function) (*Model, error) {
	if load == nil || util == nil {
		return nil, fmt.Errorf("core: load and utility must be non-nil")
	}
	mean := load.Mean()
	if !(mean > 0) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("core: load mean must be positive and finite, got %g", mean)
	}
	load = dist.Tabulate(load)
	_, inelastic := utility.KMax(util, math.Max(mean, 16))
	kcut := 4 * load.Quantile(0.999)
	if kcut < 1024 {
		kcut = 1024
	}
	return &Model{
		load:      load,
		util:      util,
		mean:      mean,
		inelastic: inelastic,
		kcut:      kcut,
	}, nil
}

// Load returns the model's load distribution (the tabulated decorator
// wrapping the distribution passed to New).
func (m *Model) Load() dist.Discrete { return m.load }

// MeanLoad returns k̄, the mean offered load.
func (m *Model) MeanLoad() float64 { return m.mean }

// KMax returns the admission threshold kmax(C) used by the
// reservation-capable architecture, or the largest representable load for
// elastic utilities (for which admission control never helps).
func (m *Model) KMax(c float64) int {
	if k, ok := m.kmaxMemo.get(c); ok {
		return k
	}
	k, ok := utility.KMax(m.util, c)
	if !ok {
		k = math.MaxInt32
	}
	return m.kmaxMemo.put(c, k)
}

// TotalBestEffort returns V_B(C) = Σ_k P(k)·k·π(C/k): the expected total
// utility of the best-effort-only architecture at capacity C.
func (m *Model) TotalBestEffort(c float64) float64 {
	if v, ok := m.beMemo.get(c); ok {
		return v
	}
	return m.beMemo.put(c, m.totalBestEffort(c))
}

func (m *Model) totalBestEffort(c float64) float64 {
	if c <= 0 {
		return 0
	}
	// Fast exact path for rigid utilities: π(C/k) is 1 for k ≤ C/b̂ and 0
	// beyond, so V_B = k̄ − TailMean(⌊C/b̂⌋).
	if r, ok := m.util.(utility.Rigid); ok {
		cut := int(math.Floor(c / r.Bhat))
		return m.mean - m.load.TailMean(cut)
	}
	rp, hasRealPMF := dist.AsRealPMF(m.load)
	kcut := m.kcut
	var sum numeric.KahanSum
	check := 32 // next index at which to test the truncation bound
	for k := 1; ; k++ {
		pk := m.load.PMF(k)
		sum.Add(pk * float64(k) * m.util.Eval(c/float64(k)))
		// π is nondecreasing in b = C/k, hence nonincreasing in k, so the
		// remaining mass is at most π(C/k)·TailMean(k). The bound costs a
		// tail-moment evaluation, so test it at geometrically spaced
		// checkpoints.
		if k == check || pk == 0 {
			if bound := m.util.Eval(c/float64(k)) * m.load.TailMean(k); bound <= defaultTol*(1+sum.Sum()) {
				break
			}
			check += 32 + check/4
		}
		if hasRealPMF && k >= kcut {
			// Midpoint-rule integral tail: Σ_{j>k} j·P(j)·π(C/j)
			// ≈ ∫_{k+1/2}^∞ x·P(x)·π(C/x) dx.
			sum.Add(numeric.IntegrateToInf(func(x float64) float64 {
				return x * rp.PMFAt(x) * m.util.Eval(c/x)
			}, float64(k)+0.5, defaultTol/100))
			break
		}
		if k > 1<<26 {
			break
		}
	}
	return sum.Sum()
}

// TotalReservation returns V_R(C): the expected total utility of the
// reservation-capable architecture at capacity C. When k flows request
// service, min(k, kmax) are admitted, each receiving C/min(k, kmax);
// rejected flows receive zero utility.
func (m *Model) TotalReservation(c float64) float64 {
	if v, ok := m.resvMemo.get(c); ok {
		return v
	}
	return m.resvMemo.put(c, m.totalReservation(c))
}

func (m *Model) totalReservation(c float64) float64 {
	if c <= 0 {
		return 0
	}
	if !m.inelastic {
		// Elastic utilities: admitting everyone maximizes utility, so the
		// reservation network behaves exactly like best-effort.
		return m.TotalBestEffort(c)
	}
	kmax := m.KMax(c)
	if kmax <= 0 {
		return 0
	}
	// Fast exact path for rigid utilities: every admitted flow receives at
	// least b̂, so V_R = E[k; k ≤ kmax] + kmax·P(k > kmax).
	if _, ok := m.util.(utility.Rigid); ok {
		return m.mean - m.load.TailMean(kmax) + float64(kmax)*m.load.TailProb(kmax)
	}
	var sum numeric.KahanSum
	head := kmax
	if rp, ok := dist.AsRealPMF(m.load); ok && kmax > m.kcut {
		// Heavy-tailed loads: sum directly through the bulk, then close the
		// smooth remainder of the head with a midpoint-rule integral.
		head = m.kcut
		sum.Add(numeric.Integrate(func(x float64) float64 {
			return x * rp.PMFAt(x) * m.util.Eval(c/x)
		}, float64(head)+0.5, float64(kmax)+0.5, defaultTol/100))
	}
	for k := 1; k <= head; k++ {
		sum.Add(m.load.PMF(k) * float64(k) * m.util.Eval(c/float64(k)))
		// Terms are bounded by k·P(k); once the remaining head mass is
		// negligible (π ≤ 1), skip straight to the overflow term.
		if k%64 == 0 && m.load.TailMean(k) <= defaultTol*(1+sum.Sum()) {
			break
		}
	}
	// All loads beyond kmax admit exactly kmax flows at share C/kmax.
	sum.Add(float64(kmax) * m.util.Eval(c/float64(kmax)) * m.load.TailProb(kmax))
	return sum.Sum()
}

// BestEffort returns the normalized per-flow utility B(C) = V_B(C)/k̄.
// Since π ≤ 1, B lies in [0, 1].
func (m *Model) BestEffort(c float64) float64 {
	return m.TotalBestEffort(c) / m.mean
}

// Reservation returns the normalized per-flow utility R(C) = V_R(C)/k̄.
func (m *Model) Reservation(c float64) float64 {
	return m.TotalReservation(c) / m.mean
}

// PerformanceGap returns δ(C) = R(C) − B(C), the per-flow utility advantage
// of the reservation-capable architecture.
func (m *Model) PerformanceGap(c float64) float64 {
	return m.Reservation(c) - m.BestEffort(c)
}

// BandwidthGap returns Δ(C), the extra capacity the best-effort-only
// architecture needs to match reservation performance:
// B(C + Δ) = R(C). B is nondecreasing in capacity, so Δ is found by
// monotone inversion (InvertGap); it is 0 whenever the gap is already below
// the model tolerance.
func (m *Model) BandwidthGap(c float64) (float64, error) {
	return InvertGap(m.BestEffort, m.Reservation(c), c)
}

// InvertGap returns the bandwidth gap Δ ≥ 0 solving best(c + Δ) = r, for a
// nondecreasing best-effort utility best and a reservation utility r at
// capacity c: 0 when r exceeds best(c) by no more than the model tolerance,
// else the root, bracketed by doubling from max(c, 1). best approaches its
// supremum (at most 1) from below, and r lies under that supremum for the
// loads considered; a gap past 1e12 is reported as diverging. The model,
// its sampling and retrying extensions and the continuum quadrature model
// all solve their gaps through it.
func InvertGap(best func(float64) float64, r, c float64) (float64, error) {
	if r-best(c) <= defaultTol {
		return 0, nil
	}
	f := func(delta float64) float64 { return best(c+delta) - r }
	delta, err := numeric.Root(f, 0, math.Max(c, 1), 1e12, 1e-9*(1+c))
	if err != nil {
		return 0, fmt.Errorf("core: bandwidth gap diverges at C=%g (B never reaches R=%g): %w", c, r, err)
	}
	return delta, nil
}

// Gaps returns B(C), R(C), δ(C) and Δ(C) in one call, sharing the
// underlying evaluations.
func (m *Model) Gaps(c float64) (b, r, delta, bwGap float64, err error) {
	b = m.BestEffort(c)
	r = m.Reservation(c)
	delta = r - b
	bwGap, err = m.BandwidthGap(c)
	return b, r, delta, bwGap, err
}

// FixedLoadTotal returns the fixed-load model's total utility
// V(k) = k·π(C/k) (§2), exposed for the fixed-load analyses and examples.
func (m *Model) FixedLoadTotal(c float64, k int) float64 {
	return utility.TotalUtility(m.util, c, k)
}
