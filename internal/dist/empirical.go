package dist

import (
	"fmt"
	"math"
)

// Empirical is a distribution given by explicit weights over k = 0, 1, …,
// len(weights)−1, e.g. a stationary occupancy histogram measured by the
// flow-level simulator. Weights are normalized at construction.
type Empirical struct {
	pmf      []float64
	cdf      []float64
	tailMean []float64 // tailMean[k] = Σ_{j>k} j·pmf[j]
	sqTail   []float64 // sqTail[k] = Σ_{j>k} j²·pmf[j]
	mean     float64
}

// NewEmpiricalSamples builds an empirical distribution from raw load
// observations (e.g. a measurement trace of concurrent-flow counts). Every
// sample must be nonnegative.
func NewEmpiricalSamples(samples []int) (*Empirical, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dist: empirical needs at least one sample")
	}
	max := 0
	for i, s := range samples {
		if s < 0 {
			return nil, fmt.Errorf("dist: sample[%d] = %d is negative", i, s)
		}
		if s > max {
			max = s
		}
	}
	weights := make([]float64, max+1)
	for _, s := range samples {
		weights[s]++
	}
	return NewEmpirical(weights)
}

// NewEmpirical builds an empirical distribution from nonnegative weights
// (they need not sum to one). At least one weight must be positive.
func NewEmpirical(weights []float64) (*Empirical, error) {
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: empirical weight[%d] = %g is invalid", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: empirical weights sum to %g; need positive mass", total)
	}
	// One backing array for the four tables, cut into capacity-limited
	// subslices.
	n := len(weights)
	buf := make([]float64, 4*n+2)
	e := &Empirical{
		pmf:      buf[:n:n],
		cdf:      buf[n : 2*n : 2*n],
		tailMean: buf[2*n : 3*n+1 : 3*n+1],
		sqTail:   buf[3*n+1:],
	}
	run := 0.0
	for i, w := range weights {
		e.pmf[i] = w / total
		run += e.pmf[i]
		e.cdf[i] = run
		e.mean += float64(i) * e.pmf[i]
	}
	for i := len(weights) - 1; i >= 0; i-- {
		e.tailMean[i] = e.tailMean[i+1] + float64(i)*e.pmf[i]
		e.sqTail[i] = e.sqTail[i+1] + float64(i)*float64(i)*e.pmf[i]
	}
	return e, nil
}

// PMF returns P(k).
func (e *Empirical) PMF(k int) float64 {
	if k < 0 || k >= len(e.pmf) {
		return 0
	}
	return e.pmf[k]
}

// CDF returns P(K ≤ k).
func (e *Empirical) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(e.cdf) {
		return 1
	}
	return e.cdf[k]
}

// Mean returns the distribution mean.
func (e *Empirical) Mean() float64 { return e.mean }

// TailProb returns P(K > k).
func (e *Empirical) TailProb(k int) float64 {
	if k < 0 {
		return 1
	}
	if k >= len(e.cdf) {
		return 0
	}
	return 1 - e.cdf[k]
}

// TailMean returns Σ_{j>k} j·P(j).
func (e *Empirical) TailMean(k int) float64 {
	if k < 0 {
		k = -1
	}
	if k+1 >= len(e.tailMean) {
		return 0
	}
	return e.tailMean[k+1]
}

// SquareTailMean returns Σ_{j>k} j²·P(j).
func (e *Empirical) SquareTailMean(k int) float64 {
	if k < 0 {
		k = -1
	}
	if k+1 >= len(e.sqTail) {
		return 0
	}
	return e.sqTail[k+1]
}

// Quantile returns the smallest k with CDF(k) ≥ p.
func (e *Empirical) Quantile(p float64) int {
	if p <= 0 {
		return 0
	}
	for k, c := range e.cdf {
		if c >= p {
			return k
		}
	}
	return len(e.cdf) - 1
}
