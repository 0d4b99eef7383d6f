package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRiemannZetaKnownValues(t *testing.T) {
	cases := []struct {
		s, want float64
	}{
		{2, math.Pi * math.Pi / 6},
		{4, math.Pow(math.Pi, 4) / 90},
		{3, 1.2020569031595943}, // Apéry's constant
		{1.5, 2.612375348685488},
		{6, math.Pow(math.Pi, 6) / 945},
	}
	for _, c := range cases {
		almostEqual(t, RiemannZeta(c.s), c.want, 1e-12, "ζ(s)")
	}
}

func TestHurwitzZetaRecurrence(t *testing.T) {
	// ζ(s, q) = q^(−s) + ζ(s, q+1) for random (s, q).
	prop := func(s1, s2 float64) bool {
		s := 1.1 + math.Mod(math.Abs(s1), 10)
		q := 0.5 + math.Mod(math.Abs(s2), 50)
		lhs := HurwitzZeta(s, q)
		rhs := math.Pow(q, -s) + HurwitzZeta(s, q+1)
		return math.Abs(lhs-rhs) < 1e-11*(1+math.Abs(lhs))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHurwitzZetaMatchesDirectSum(t *testing.T) {
	// Compare against brute-force summation for a rapidly converging case.
	s, q := 5.0, 3.7
	var direct KahanSum
	for n := 0; n < 2_000_000; n++ {
		direct.Add(math.Pow(q+float64(n), -s))
	}
	almostEqual(t, HurwitzZeta(s, q), direct.Sum(), 1e-12, "Hurwitz vs direct sum")
}

func TestHurwitzZetaSlowCase(t *testing.T) {
	// s close to 1 converges very slowly by direct summation; Euler–Maclaurin
	// must still nail it. Reference computed from the recurrence applied to a
	// shifted fast case is impractical, so use ζ(1.2) from the identity with
	// a very deep direct sum plus integral tail bound.
	s := 1.2
	const N = 4_000_000
	var head KahanSum
	for n := 1; n <= N; n++ {
		head.Add(math.Pow(float64(n), -s))
	}
	// Tail ∫_{N+1/2}^∞ x^(−s) dx approximates the remainder (midpoint rule).
	tail := math.Pow(float64(N)+0.5, 1-s) / (s - 1)
	want := head.Sum() + tail
	almostEqual(t, RiemannZeta(s), want, 1e-7, "ζ(1.2)")
}

func TestHurwitzZetaDomain(t *testing.T) {
	if !math.IsNaN(HurwitzZeta(0.5, 1)) {
		t.Error("expected NaN for s ≤ 1")
	}
	if !math.IsNaN(HurwitzZeta(2, -1)) {
		t.Error("expected NaN for q ≤ 0")
	}
}

func TestLambertWm1KnownValues(t *testing.T) {
	almostEqual(t, LambertWm1(-1/math.E), -1, 1e-9, "branch point")
	// W₋₁(−0.1) ≈ −3.577152063957297
	almostEqual(t, LambertWm1(-0.1), -3.577152063957297, 1e-10, "W₋₁(−0.1)")
}

func TestLambertWm1Identity(t *testing.T) {
	prop := func(seed float64) bool {
		// x in (−1/e, 0)
		u := math.Mod(math.Abs(seed), 1) // (0,1)
		x := -u / math.E
		if x == 0 {
			return true
		}
		w := LambertWm1(x)
		return w <= -1 && math.Abs(w*math.Exp(w)-x) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLambertDomain(t *testing.T) {
	if !math.IsNaN(LambertWm1(-1)) {
		t.Error("W₋₁ below branch point should be NaN")
	}
	if !math.IsNaN(LambertWm1(0.5)) {
		t.Error("W₋₁ of positive argument should be NaN")
	}
}
