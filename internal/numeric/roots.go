package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root-finding routine cannot bracket a sign
// change in the supplied interval.
var ErrNoBracket = errors.New("numeric: no sign change in bracket")

// ErrNoConverge is returned when an iterative routine exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// maxBrentSteps is Brent's iteration budget.
const maxBrentSteps = 200

// Root finds the root of f past lo, for an f that changes sign once there.
// It doubles hi until f(hi) is zero or differs in sign from f(lo), failing
// with ErrNoBracket once hi would pass max, then runs Brent on [lo, hi],
// reusing both end values; tol is the absolute argument tolerance.
func Root(f func(float64) float64, lo, hi, max, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	for flo < 0 && fhi < 0 || flo > 0 && fhi > 0 {
		if hi *= 2; hi > max {
			return 0, fmt.Errorf("%w: f(%g)=%g and no sign change up to %g", ErrNoBracket, lo, flo, max)
		}
		fhi = f(hi)
	}
	return brent(f, lo, hi, flo, fhi, tol)
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs. tol is the absolute argument tolerance; Brent also stops once its
// bracket is two adjacent floats, which no step can narrow, and fails with
// ErrNoConverge if neither happens within its iteration budget.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	return brent(f, a, b, f(a), f(b), tol)
}

func brent(f func(float64) float64, a, b, fa, fb, tol float64) (float64, error) {
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) || fa*fb > 0 {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b, fa, fb = b, a, fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxBrentSteps; i++ {
		if fb == 0 || math.Abs(b-a) <= tol || math.Nextafter(a, b) == b {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = a + (b-a)/2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if fa*fs < 0 {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b, fa, fb = b, a, fb, fa
		}
	}
	return 0, fmt.Errorf("%w: Brent bracket [%g, %g] after %d steps", ErrNoConverge, a, b, maxBrentSteps)
}
