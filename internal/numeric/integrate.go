package numeric

import "math"

// Integrate computes the definite integral of f over [a, b] using adaptive
// Simpson quadrature with absolute tolerance tol. It handles a > b by sign
// convention and a == b by returning 0.
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	c := a + (b-a)/2
	fa, fb, fc := f(a), f(b), f(c)
	whole := simpson(fa, fc, fb, b-a)
	// Never demand more than ~1e-13 relative accuracy: callers pass small
	// absolute tolerances for integrals whose magnitude they cannot know in
	// advance (e.g. far power-law tails of order 1e-11).
	if rel := 1e-13 * math.Abs(whole); rel > tol {
		tol = rel
	}
	return sign * adaptiveSimpson(f, a, b, fa, fb, fc, whole, tol, 50)
}

func simpson(fa, fm, fb, h float64) float64 {
	return h / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, fc, whole, tol float64, depth int) float64 {
	c := a + (b-a)/2
	lm := a + (c-a)/2
	rm := c + (b-c)/2
	flm, frm := f(lm), f(rm)
	left := simpson(fa, flm, fc, c-a)
	right := simpson(fc, frm, fb, b-c)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, c, fa, fc, flm, left, tol/2, depth-1) +
		adaptiveSimpson(f, c, b, fc, fb, frm, right, tol/2, depth-1)
}

// IntegrateToInf computes the integral of f over [a, ∞) by mapping the tail
// onto a finite interval with the scaled substitution x = a + s·t/(1−t),
// t ∈ [0, 1), where s = max(|a|, 1). The scale keeps power-law tails
// starting at large a well resolved (x doubles at t = 1/2 instead of being
// squeezed against t = 1). f must decay fast enough for the transformed
// integrand to vanish as t → 1.
func IntegrateToInf(f func(float64) float64, a, tol float64) float64 {
	s := math.Abs(a)
	if s < 1 {
		s = 1
	}
	return IntegrateToInfScaled(f, a, s, tol)
}

// IntegrateToInfScaled is IntegrateToInf with an explicit substitution scale
// s: x = a + s·t/(1−t). Use it when f's decay scale is much larger than a
// (e.g. a heavy tail whose mass sits near x ≈ λ^(1/z) ≫ a), which the
// default scale would squeeze against t = 1.
func IntegrateToInfScaled(f func(float64) float64, a, s, tol float64) float64 {
	if !(s > 0) {
		s = 1
	}
	g := func(t float64) float64 {
		if t >= 1 {
			return 0
		}
		u := 1 - t
		x := a + s*t/u
		v := s * f(x) / (u * u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return Integrate(g, 0, 1, tol)
}

// KahanSum accumulates a compensated (Kahan) running sum. The zero value is
// ready to use.
type KahanSum struct {
	sum, comp float64
}

// Add folds x into the sum.
func (k *KahanSum) Add(x float64) {
	y := x - k.comp
	s := k.sum + y
	k.comp = (s - k.sum) - y
	k.sum = s
}

// Sum reports the accumulated total.
func (k *KahanSum) Sum() float64 { return k.sum }
