package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntegratePolynomial(t *testing.T) {
	got := Integrate(func(x float64) float64 { return x * x }, 0, 1, 1e-12)
	almostEqual(t, got, 1.0/3, 1e-10, "∫₀¹ x² dx")
}

func TestIntegrateSin(t *testing.T) {
	got := Integrate(math.Sin, 0, math.Pi, 1e-12)
	almostEqual(t, got, 2, 1e-9, "∫₀^π sin x dx")
}

func TestIntegrateReversedAndEmpty(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got := Integrate(f, 1, 1, 1e-12); got != 0 {
		t.Errorf("empty interval: got %v", got)
	}
	fwd := Integrate(f, 0, 2, 1e-12)
	rev := Integrate(f, 2, 0, 1e-12)
	almostEqual(t, rev, -fwd, 1e-10, "reversed bounds negate")
}

func TestIntegrateToInfExponential(t *testing.T) {
	got := IntegrateToInf(func(x float64) float64 { return math.Exp(-x) }, 0, 1e-12)
	almostEqual(t, got, 1, 1e-8, "∫₀^∞ e^(−x) dx")
}

func TestIntegrateToInfPowerTail(t *testing.T) {
	got := IntegrateToInf(func(x float64) float64 { return math.Pow(x, -2) }, 1, 1e-12)
	almostEqual(t, got, 1, 1e-8, "∫₁^∞ x^(−2) dx")
}

func TestIntegrateToInfShiftedExponential(t *testing.T) {
	// ∫_a^∞ e^(−x) dx = e^(−a), for several a.
	for _, a := range []float64{0.5, 1, 3, 10} {
		got := IntegrateToInf(func(x float64) float64 { return math.Exp(-x) }, a, 1e-12)
		almostEqual(t, got, math.Exp(-a), 1e-8, "shifted exponential tail")
	}
}

func TestIntegrateAdditivityProperty(t *testing.T) {
	// ∫_a^c = ∫_a^b + ∫_b^c for a smooth integrand.
	f := func(x float64) float64 { return math.Exp(-x*x/10) * math.Cos(x) }
	prop := func(s1, s2 float64) bool {
		a := math.Mod(math.Abs(s1), 5)
		c := a + 1 + math.Mod(math.Abs(s2), 5)
		b := (a + c) / 2
		whole := Integrate(f, a, c, 1e-11)
		parts := Integrate(f, a, b, 1e-11) + Integrate(f, b, c, 1e-11)
		return math.Abs(whole-parts) < 1e-8
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKahanSumPrecision(t *testing.T) {
	var ks KahanSum
	ks.Add(1e16)
	for i := 0; i < 10000; i++ {
		ks.Add(1)
	}
	ks.Add(-1e16)
	almostEqual(t, ks.Sum(), 10000, 1e-6, "compensated summation")
}
