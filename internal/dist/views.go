package dist

import (
	"fmt"
	"math"
)

// SquareTailer is an optional extension of Discrete providing exact second
// moments of the tail, Σ_{j>k} j²·P(j). The size-biased view needs it; the
// built-in distributions all implement it (the algebraic one returns +Inf
// when z ≤ 3, where the second moment genuinely diverges).
type SquareTailer interface {
	SquareTailMean(k int) float64
}

// SquareTailMean implements SquareTailer for Poisson using the identity
// j²·P(j; ν) = ν·(j−1)·P(j−1; ν) + ν·P(j−1; ν).
func (p Poisson) SquareTailMean(k int) float64 {
	return p.nu * (p.TailMean(k-1) + p.TailProb(k-1))
}

// SquareTailMean implements SquareTailer for Exponential via the closed form
// for Σ_{j≥m} j(j−1)q^j + Σ_{j≥m} j·q^j.
func (e Exponential) SquareTailMean(k int) float64 {
	if k < 0 {
		k = -1
	}
	m := float64(k + 1)
	q := e.q
	u := 1 - q
	qm := math.Pow(q, m)
	// Σ_{j≥m} j(j−1) q^j = m(m−1) q^m/u + 2m q^(m+1)/u² + 2 q^(m+2)/u³
	jj1 := m*(m-1)*qm/u + 2*m*qm*q/(u*u) + 2*qm*q*q/(u*u*u)
	// Σ_{j≥m} j q^j = q^m (m − (m−1) q)/u²
	j1 := qm * (m - (m-1)*q) / (u * u)
	return u * (jj1 + j1)
}

// squareTail computes Σ_{j>k} j²·P(j) for an arbitrary Discrete, using the
// exact SquareTailer when available and a high-quantile truncated sum
// otherwise.
func squareTail(d Discrete, k int) float64 {
	if st, ok := d.(SquareTailer); ok {
		return st.SquareTailMean(k)
	}
	top := d.Quantile(1 - 1e-15)
	var s float64
	for j := k + 1; j <= top; j++ {
		jf := float64(j)
		s += jf * jf * d.PMF(j)
	}
	return s
}

// SizeBiased is the "flow's-eye" view of a load distribution: the
// probability that an arriving flow shares the link with k−1 others is
// Q(k) = k·P(k)/k̄. The paper's sampling extension (§5.1) draws a flow's
// experienced load levels from Q.
type SizeBiased struct {
	base     Discrete
	baseMean float64
}

// NewSizeBiased returns the size-biased view of base.
func NewSizeBiased(base Discrete) (SizeBiased, error) {
	m := base.Mean()
	if !(m > 0) || math.IsInf(m, 0) {
		return SizeBiased{}, fmt.Errorf("dist: size-biased view needs a positive finite base mean, got %g", m)
	}
	return SizeBiased{base: base, baseMean: m}, nil
}

// PMF returns Q(k) = k·P(k)/k̄.
func (s SizeBiased) PMF(k int) float64 {
	if k < 1 {
		return 0
	}
	return float64(k) * s.base.PMF(k) / s.baseMean
}

// CDF returns P(Q ≤ k) = 1 − TailMean_P(k)/k̄.
func (s SizeBiased) CDF(k int) float64 {
	if k < 1 {
		return 0
	}
	return 1 - s.TailProb(k)
}

// TailProb returns Σ_{j>k} Q(j) = TailMean_P(k)/k̄.
func (s SizeBiased) TailProb(k int) float64 {
	if k < 1 {
		k = 0
	}
	return s.base.TailMean(k) / s.baseMean
}

// Mean returns E_Q[K] = E_P[K²]/k̄. It is +Inf when the base second moment
// diverges (algebraic z ≤ 3).
func (s SizeBiased) Mean() float64 {
	return squareTail(s.base, 0) / s.baseMean
}

// TailMean returns Σ_{j>k} j·Q(j) = Σ_{j>k} j²·P(j)/k̄.
func (s SizeBiased) TailMean(k int) float64 {
	return squareTail(s.base, k) / s.baseMean
}

// Quantile returns the smallest k with CDF(k) ≥ p.
func (s SizeBiased) Quantile(p float64) int {
	return quantileByScan(s, p, int(s.baseMean)+1)
}

// MaxOfS is the distribution of the maximum of S independent draws from a
// base distribution. The paper's sampling extension evaluates a flow at the
// worst of S load samples.
type MaxOfS struct {
	base Discrete
	s    int
}

// NewMaxOfS returns the max-of-s view of base; s must be ≥ 1.
func NewMaxOfS(base Discrete, s int) (MaxOfS, error) {
	if s < 1 {
		return MaxOfS{}, fmt.Errorf("dist: max-of-S needs S ≥ 1, got %d", s)
	}
	return MaxOfS{base: base, s: s}, nil
}

// CDF returns F(k)^S.
func (m MaxOfS) CDF(k int) float64 {
	f := m.base.CDF(k)
	if f <= 0 {
		return 0
	}
	return math.Pow(f, float64(m.s))
}

// PMF returns F(k)^S − F(k−1)^S.
func (m MaxOfS) PMF(k int) float64 {
	v := m.CDF(k) - m.CDF(k-1)
	if v < 0 {
		return 0
	}
	return v
}

// TailProb returns 1 − F(k)^S, computed as −expm1(S·log1p(−T)) with
// T = P(K > k), so tiny tails keep full relative precision.
func (m MaxOfS) TailProb(k int) float64 {
	t := m.base.TailProb(k)
	if t >= 1 {
		return 1
	}
	return -math.Expm1(float64(m.s) * math.Log1p(-t))
}

// Mean returns E[max] = Σ_{k≥0} P(max > k). It is +Inf when the base mean
// is infinite.
func (m MaxOfS) Mean() float64 {
	if math.IsInf(m.base.TailMean(0), 1) {
		return math.Inf(1)
	}
	var sum float64
	for k := 0; ; k++ {
		t := m.TailProb(k)
		sum += t
		// The base tail bounds the remaining mass:
		// Σ_{j>k} P(max > j) ≤ S · Σ_{j>k} P(K > j) ≤ S·TailMean_P(k).
		if t < 1e-15 && float64(m.s)*m.base.TailMean(k) < 1e-12*(1+sum) {
			break
		}
		if k > 1<<26 {
			break
		}
	}
	return sum
}

// TailMean returns Σ_{j>k} j·P(max = j) via the identity
// Σ_{j>k} j·p_j = (k+1)·P(max > k) + Σ_{j>k} P(max > j).
func (m MaxOfS) TailMean(k int) float64 {
	if k < 0 {
		return m.Mean()
	}
	if math.IsInf(m.base.TailMean(0), 1) {
		return math.Inf(1)
	}
	sum := float64(k+1) * m.TailProb(k)
	for j := k + 1; ; j++ {
		t := m.TailProb(j)
		sum += t
		if t < 1e-15 && float64(m.s)*m.base.TailMean(j) < 1e-12*(1+sum) {
			break
		}
		if j > 1<<26 {
			break
		}
	}
	return sum
}

// Quantile returns the smallest k with CDF(k) ≥ p.
func (m MaxOfS) Quantile(p float64) int {
	if p <= 0 {
		return 0
	}
	// F_max(k) ≥ p ⇔ F(k) ≥ p^(1/S).
	return m.base.Quantile(math.Pow(p, 1/float64(m.s)))
}
