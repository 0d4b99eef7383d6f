package dist

import (
	"sort"
	"sync"
)

// Tabulated table sizing: the table covers the effective support out to
// tabulatedPad·Quantile(tabulatedQuantile) — the same padding rule as the
// model's series cutoff kcut — clamped to [tabulatedMin, tabulatedMax].
// Beyond the table every query falls through to the base distribution's
// analytic tail, so the cap bounds memory without affecting correctness.
const (
	tabulatedQuantile = 0.999
	tabulatedPad      = 4
	tabulatedMin      = 1024
	tabulatedMax      = 1 << 17
)

// Tabulated is a read-through decorator that precomputes PMF, CDF, TailProb
// and TailMean arrays over the base distribution's effective support, using
// stable recurrences where the family provides one (Poisson, geometric).
// Inside the table every query is an O(1) array load — no Lgamma, Pow or
// O(k) re-summation per call; outside it, queries delegate to the base
// distribution's exact analytic tails, so values match the base to within
// ordinary floating-point roundoff everywhere.
//
// A Tabulated is immutable after construction (the lazy square-tail cache is
// guarded by sync.Once) and therefore safe for concurrent use whenever its
// base distribution is.
type Tabulated struct {
	base     Discrete
	mean     float64
	pmf      []float64 // pmf[k] = P(k), k = 0 … kTop
	cdf      []float64 // cdf[k] = P(K ≤ k)
	tailProb []float64 // tailProb[k] = P(K > k), seeded from the base tail
	tailMean []float64 // tailMean[k] = Σ_{j>k} j·P(j), likewise

	// sqTail is built lazily (only the size-biased view needs it) when the
	// base does not provide exact square tails itself.
	sqOnce sync.Once
	sqTail []float64
	sqRest float64
}

// Tabulate wraps d in a Tabulated decorator. It is idempotent, and returns
// already-array-backed distributions (Empirical) unchanged.
func Tabulate(d Discrete) Discrete {
	switch d.(type) {
	case *Tabulated, *Empirical:
		return d
	}
	kTop := tabulatedPad * d.Quantile(tabulatedQuantile)
	if kTop < tabulatedMin {
		kTop = tabulatedMin
	}
	if kTop > tabulatedMax {
		kTop = tabulatedMax
	}
	t := &Tabulated{
		base:     d,
		mean:     d.Mean(),
		pmf:      make([]float64, kTop+1),
		cdf:      make([]float64, kTop+1),
		tailProb: make([]float64, kTop+1),
		tailMean: make([]float64, kTop+1),
	}
	fillPMF(d, t.pmf)
	var s, comp float64
	for k, pk := range t.pmf {
		y := pk - comp
		ns := s + y
		comp = (ns - s) - y
		s = ns
		if s > 1 {
			s = 1
		}
		t.cdf[k] = s
	}
	// Seed the suffix arrays with the base's exact analytic tails so the
	// table and the beyond-table region agree to machine precision.
	t.tailProb[kTop] = d.TailProb(kTop)
	t.tailMean[kTop] = d.TailMean(kTop)
	for k := kTop - 1; k >= 0; k-- {
		t.tailProb[k] = t.tailProb[k+1] + t.pmf[k+1]
		t.tailMean[k] = t.tailMean[k+1] + float64(k+1)*t.pmf[k+1]
	}
	return t
}

// fillPMF writes P(k) for k = 0 … len(dst)−1, using a stable multiplicative
// recurrence for the families that have one instead of per-entry
// transcendental calls.
func fillPMF(d Discrete, dst []float64) {
	switch b := d.(type) {
	case Poisson:
		if pt := b.table(); pt != nil {
			n := copy(dst, pt.pmf)
			for k := n; k < len(dst); k++ {
				dst[k] = b.PMF(k) // beyond 40σ: underflows to ~0
			}
			return
		}
	case Exponential:
		// P(k) = (1−q)·q^k: geometric recurrence.
		dst[0] = 1 - b.q
		for k := 1; k < len(dst); k++ {
			dst[k] = dst[k-1] * b.q
		}
		return
	}
	for k := range dst {
		dst[k] = d.PMF(k)
	}
}

// PMF returns P(k).
func (t *Tabulated) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k < len(t.pmf) {
		return t.pmf[k]
	}
	return t.base.PMF(k)
}

// CDF returns P(K ≤ k).
func (t *Tabulated) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k < len(t.cdf) {
		return t.cdf[k]
	}
	return t.base.CDF(k)
}

// Mean returns the base mean.
func (t *Tabulated) Mean() float64 { return t.mean }

// TailProb returns P(K > k).
func (t *Tabulated) TailProb(k int) float64 {
	if k < 0 {
		return 1
	}
	if k < len(t.tailProb) {
		return t.tailProb[k]
	}
	return t.base.TailProb(k)
}

// TailMean returns Σ_{j>k} j·P(j).
func (t *Tabulated) TailMean(k int) float64 {
	if k < 0 {
		return t.base.TailMean(k)
	}
	if k < len(t.tailMean) {
		return t.tailMean[k]
	}
	return t.base.TailMean(k)
}

// Quantile returns the smallest k with CDF(k) ≥ p.
func (t *Tabulated) Quantile(p float64) int {
	if p <= 0 {
		return 0
	}
	n := len(t.cdf)
	if p <= t.cdf[n-1] {
		return sort.Search(n, func(k int) bool { return t.cdf[k] >= p })
	}
	return t.base.Quantile(p)
}

// SquareTailMean returns Σ_{j>k} j²·P(j), delegating to the base's exact
// implementation when it has one and to a lazily built table otherwise.
func (t *Tabulated) SquareTailMean(k int) float64 {
	if st, ok := t.base.(SquareTailer); ok {
		return st.SquareTailMean(k)
	}
	t.sqOnce.Do(func() {
		kTop := len(t.pmf) - 1
		t.sqRest = squareTail(t.base, kTop)
		t.sqTail = make([]float64, kTop+1)
		t.sqTail[kTop] = t.sqRest
		for j := kTop - 1; j >= 0; j-- {
			jf := float64(j + 1)
			t.sqTail[j] = t.sqTail[j+1] + jf*jf*t.pmf[j+1]
		}
	})
	if k < 0 {
		k = -1
	}
	if k+1 < len(t.sqTail) {
		if k < 0 {
			return t.sqTail[0] // j = 0 contributes nothing
		}
		return t.sqTail[k]
	}
	return squareTail(t.base, k)
}

// AsRealPMF reports whether d (unwrapping a Tabulated decorator) extends
// its PMF smoothly to real arguments, and returns that extension.
func AsRealPMF(d Discrete) (RealPMF, bool) {
	if t, ok := d.(*Tabulated); ok {
		d = t.base
	}
	rp, ok := d.(RealPMF)
	return rp, ok
}

// AsFamily reports whether d (unwrapping a Tabulated decorator) belongs to
// a mean-parameterized family, and returns that family.
func AsFamily(d Discrete) (Family, bool) {
	if t, ok := d.(*Tabulated); ok {
		d = t.base
	}
	f, ok := d.(Family)
	return f, ok
}

// ensure interface conformance at compile time.
var (
	_ Discrete     = (*Tabulated)(nil)
	_ SquareTailer = (*Tabulated)(nil)
)
