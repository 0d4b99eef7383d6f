package numeric

import "math"

// LambertWm1 computes the secondary real branch W₋₁: the solution w ≤ −1 of
// w·e^w = x, defined for x ∈ [−1/e, 0). It returns NaN outside that domain.
func LambertWm1(x float64) float64 {
	const negInvE = -1.0 / math.E
	if math.IsNaN(x) || x < negInvE || x >= 0 {
		return math.NaN()
	}
	if x == negInvE {
		return -1
	}
	// Initial guess: w ≈ ln(−x) − ln(−ln(−x)).
	l1 := math.Log(-x)
	w := l1
	if -l1 > 0 {
		w = l1 - math.Log(-l1)
	}
	if w > -1 {
		w = -1.000001
	}
	return halleyW(x, w)
}

// halleyW refines w·e^w = x by Halley's method.
func halleyW(x, w float64) float64 {
	for i := 0; i < 100; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			return w
		}
		d := ew*(w+1) - (w+2)*f/(2*(w+1))
		dw := f / d
		nw := w - dw
		if math.Abs(nw-w) <= 1e-14*(1+math.Abs(nw)) {
			return nw
		}
		w = nw
	}
	return w
}
