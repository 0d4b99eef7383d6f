package core

import (
	"fmt"
	"math"
	"sync"

	"beqos/internal/dist"
	"beqos/internal/numeric"
)

// Sampling is the paper's §5.1 extension: instead of experiencing a single
// static load level, a flow samples the load S times and its utility is
// determined by the worst (maximum) sample, modeling users who judge a call
// by its worst stretch. Each sample is drawn from the size-biased
// distribution Q(k) = k·P(k)/k̄ — the load as seen by an arriving flow.
//
// In the reservation-capable network the admission decision is made at the
// first sample (a flow arriving at load k > kmax is admitted with
// probability kmax/k), and admitted flows never see an effective load above
// kmax: subsequent samples are clipped there.
type Sampling struct {
	m *Model
	s int
	q dist.SizeBiased
	// kmaxOverride, when positive, fixes the admission threshold
	// independent of the utility function — the paper's footnote 9, which
	// notes that under sampling even *elastic* applications can benefit
	// from reservations if some finite kmax is imposed.
	kmaxOverride int
	// cdfQ lazily caches F_Q(k) for k = 0, 1, …; the size-biased CDF costs
	// a tail-moment evaluation per entry, and the series below walk it
	// sequentially for every capacity. Guarded by mu so a Sampling, like
	// the Model it extends, is safe for concurrent use.
	mu   sync.Mutex
	cdfQ []float64
}

// NewSampling returns the S-sample extension of the model; s ≥ 1.
// S = 1 reduces exactly to the basic model.
func NewSampling(m *Model, s int) (*Sampling, error) {
	if s < 1 {
		return nil, fmt.Errorf("core: sampling needs S ≥ 1, got %d", s)
	}
	q, err := dist.NewSizeBiased(m.load)
	if err != nil {
		return nil, fmt.Errorf("core: sampling: %w", err)
	}
	return &Sampling{m: m, s: s, q: q, cdfQ: []float64{0}}, nil
}

// NewSamplingWithKMax is NewSampling with an explicit admission threshold,
// enabling the footnote-9 analysis: with sampling, a reservation network
// capping concurrency at a hand-chosen kmax can outperform best-effort even
// for elastic utilities, whose standard kmax is infinite.
func NewSamplingWithKMax(m *Model, s, kmax int) (*Sampling, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("core: sampling kmax must be ≥ 1, got %d", kmax)
	}
	sp, err := NewSampling(m, s)
	if err != nil {
		return nil, err
	}
	sp.kmaxOverride = kmax
	return sp, nil
}

// kmaxAt returns the admission threshold in effect at capacity c.
func (sp *Sampling) kmaxAt(c float64) (int, bool) {
	if sp.kmaxOverride > 0 {
		return sp.kmaxOverride, true
	}
	if !sp.m.inelastic {
		return 0, false
	}
	return sp.m.KMax(c), true
}

// S returns the number of samples.
func (sp *Sampling) S() int { return sp.s }

// Model returns the underlying basic model.
func (sp *Sampling) Model() *Model { return sp.m }

// fq returns F_Q(k), extending the cache as needed.
func (sp *Sampling) fq(k int) float64 {
	if k < 0 {
		return 0
	}
	sp.mu.Lock()
	for len(sp.cdfQ) <= k {
		sp.cdfQ = append(sp.cdfQ, sp.q.CDF(len(sp.cdfQ)))
	}
	v := sp.cdfQ[k]
	sp.mu.Unlock()
	return v
}

// BestEffort returns the per-flow utility of the best-effort-only network
// under S-sampling: B_S(C) = Σ_k Q_S(k)·π(C/k), with Q_S the max-of-S law
// of the size-biased load.
func (sp *Sampling) BestEffort(c float64) float64 {
	if c <= 0 {
		return 0
	}
	sExp := float64(sp.s)
	var sum numeric.KahanSum
	prevPow := 0.0
	for k := 1; ; k++ {
		fk := sp.fq(k)
		pow := math.Pow(fk, sExp)
		sum.Add((pow - prevPow) * sp.m.util.Eval(c/float64(k)))
		prevPow = pow
		// Remaining mass is 1 − F^S(k), each term weighted by at most
		// π(C/(k+1)).
		if bound := (1 - pow) * sp.m.util.Eval(c/float64(k+1)); bound <= defaultTol*(1+sum.Sum()) {
			break
		}
		if k > 1<<26 {
			break
		}
	}
	return sum.Sum()
}

// Reservation returns the per-flow utility of the reservation-capable
// network under S-sampling. Admitted flows with first sample k ≤ kmax have
// effective worst-case load max(k, clipped max of S−1 further samples),
// whose law below kmax is F_Q^S; all remaining admitted mass (including
// flows admitted from overloads with probability kmax/k) operates at
// exactly kmax.
func (sp *Sampling) Reservation(c float64) float64 {
	if c <= 0 {
		return 0
	}
	kmax, controlled := sp.kmaxAt(c)
	if !controlled {
		return sp.BestEffort(c)
	}
	if kmax <= 0 {
		return 0
	}
	sExp := float64(sp.s)
	var sum numeric.KahanSum
	prevPow := 0.0
	for k := 1; k < kmax; k++ {
		pow := math.Pow(sp.fq(k), sExp)
		sum.Add((pow - prevPow) * sp.m.util.Eval(c/float64(k)))
		prevPow = pow
	}
	piAtMax := sp.m.util.Eval(c / float64(kmax))
	// Atom at kmax among first-sample-admitted flows: F_Q(kmax) − F_Q^S(kmax−1).
	sum.Add(piAtMax * (sp.fq(kmax) - prevPow))
	// Flows arriving during overload (first sample k > kmax), admitted with
	// probability kmax/k: Σ_{k>kmax} Q(k)·kmax/k = kmax·P(K > kmax)/k̄.
	sum.Add(piAtMax * float64(kmax) * sp.m.load.TailProb(kmax) / sp.m.mean)
	return sum.Sum()
}

// PerformanceGap returns δ_S(C) = R_S(C) − B_S(C).
func (sp *Sampling) PerformanceGap(c float64) float64 {
	return sp.Reservation(c) - sp.BestEffort(c)
}

// BandwidthGap returns Δ_S(C) solving B_S(C + Δ) = R_S(C).
func (sp *Sampling) BandwidthGap(c float64) (float64, error) {
	return InvertGap(sp.BestEffort, sp.Reservation(c), c)
}

// TotalBestEffort returns k̄·B_S(C), the total-utility view used by the
// welfare model.
func (sp *Sampling) TotalBestEffort(c float64) float64 {
	return sp.m.mean * sp.BestEffort(c)
}

// TotalReservation returns k̄·R_S(C).
func (sp *Sampling) TotalReservation(c float64) float64 {
	return sp.m.mean * sp.Reservation(c)
}

// ProvisionBestEffort returns C_B(p) and W_B(p) under sampling.
func (sp *Sampling) ProvisionBestEffort(p float64) (Provision, error) {
	return MaximizeWelfare(sp.TotalBestEffort, p, sp.m.mean)
}

// ProvisionReservation returns C_R(p) and W_R(p) under sampling.
func (sp *Sampling) ProvisionReservation(p float64) (Provision, error) {
	return MaximizeWelfare(sp.TotalReservation, p, sp.m.mean)
}

// GammaEqualize returns the equalizing price ratio γ(p) under sampling.
func (sp *Sampling) GammaEqualize(p float64) (float64, error) {
	return GammaFromValues(sp.TotalBestEffort, sp.TotalReservation, p, sp.m.mean)
}
