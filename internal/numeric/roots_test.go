package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %g)", msg, got, want, tol)
	}
}

func TestBrentCosFixedPoint(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	x, err := Brent(f, 0, 1, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, x, 0.7390851332151607, 1e-10, "dottie number")
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	x, err := Brent(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, x, 0, 1e-12, "root at left endpoint")
	x, err = Brent(f, -1, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, x, 0, 1e-12, "root at right endpoint")
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Brent(f, -1, 1, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Fatalf("got %v, want ErrNoBracket", err)
	}
}

func TestBrentPolynomialRootsProperty(t *testing.T) {
	// For any r in (−5, 5), Brent on f(x) = (x−r)(x²+1) over [−10, 10]
	// recovers r.
	prop := func(seed float64) bool {
		r := math.Mod(math.Abs(seed), 10) - 5
		f := func(x float64) float64 { return (x - r) * (x*x + 1) }
		x, err := Brent(f, -10, 10, 1e-12)
		return err == nil && math.Abs(x-r) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// A step has no root for Brent's interpolation to home in on: on
// [0, 1e300] its bracket only halves, and after the iteration budget it is
// still about 6e239 wide, far from tol.
func TestBrentBudgetExhaustedFails(t *testing.T) {
	step := func(x float64) float64 {
		if x < math.Pi {
			return -1
		}
		return 1
	}
	if x, err := Brent(step, 0, 1e300, 1e-9); !errors.Is(err, ErrNoConverge) {
		t.Fatalf("Brent on a step over [0, 1e300] = %v, %v; want ErrNoConverge", x, err)
	}
}

// A tolerance below the float spacing at the root cannot be met; Brent
// stops once its bracket is two adjacent floats, on the one nearer zero.
func TestBrentStopsAtAdjacentFloats(t *testing.T) {
	const base = 4.4e18 // floats here are 512 apart
	f := func(x float64) float64 { return (x - base) - 100 }
	x, err := Brent(f, 0, 1e19, 1e-7)
	if err != nil || x != base {
		t.Errorf("Brent = %v, %v; want %v, the float nearer the root", x, err, base)
	}
}

func TestRootBrackets(t *testing.T) {
	var evals []float64
	f := func(x float64) float64 {
		evals = append(evals, x)
		return x - 37
	}
	x, err := Root(f, 0, 1, 1e6, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, x, 37, 1e-9, "root of x − 37")
	// hi doubles 1, 2, …, 64; Brent reuses f(0) and f(64).
	for _, end := range []float64{0, 64} {
		n := 0
		for _, e := range evals {
			if e == end {
				n++
			}
		}
		if n != 1 {
			t.Errorf("f(%g) evaluated %d times, want once", end, n)
		}
	}
	if _, err := Root(f, 0, 1, 32, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Errorf("root past max: got %v, want ErrNoBracket", err)
	}
	if x, err := Root(f, 0, 37, 32, 1e-12); err != nil || x != 37 {
		t.Errorf("root at the first hi: got %v, %v", x, err)
	}
}

func TestRootDecreasing(t *testing.T) {
	f := func(x float64) float64 { return 1/x - 0.01 }
	x, err := Root(f, 1, 2, 1e9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, x, 100, 1e-9, "root of 1/x − 0.01")
}

func TestInvertMonotone(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	x, err := Root(func(x float64) float64 { return f(x) - 9 }, 0, 1, 1e6, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, x, 3, 1e-9, "inverse of square")
}

func TestInvertMonotoneProperty(t *testing.T) {
	// f(x) = x³ + x is strictly increasing; solving f(x) = y and then
	// evaluating is the identity.
	f := func(x float64) float64 { return x*x*x + x }
	prop := func(seed float64) bool {
		y := math.Mod(math.Abs(seed), 1000)
		x, err := Root(func(x float64) float64 { return f(x) - y }, 0, 1, 1e4, 1e-12)
		return err == nil && math.Abs(f(x)-y) < 1e-6*(1+y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
