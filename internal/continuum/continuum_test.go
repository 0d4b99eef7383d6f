package continuum

import (
	"math"
	"testing"

	"beqos/internal/dist"
	"beqos/internal/utility"
)

const kbar = 100.0

func expDensity(t testing.TB) dist.Continuous {
	t.Helper()
	d, err := dist.NewExpDensity(1 / kbar)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func algDensity(t testing.TB, z float64) dist.Continuous {
	t.Helper()
	d, err := dist.NewAlgDensity(z)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func rigidFn(t testing.TB) utility.Function {
	t.Helper()
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func rampFn(t testing.TB, a float64) utility.Function {
	t.Helper()
	r, err := utility.NewRamp(a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNumericValidation(t *testing.T) {
	if _, err := NewNumeric(nil, rigidFn(t), nil); err == nil {
		t.Error("nil load should fail")
	}
	if _, err := NewNumeric(expDensity(t), nil, nil); err == nil {
		t.Error("nil utility should fail")
	}
}

func TestExpRigidClosedFormVsQuadrature(t *testing.T) {
	cf, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	num, err := NewNumeric(expDensity(t), rigidFn(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{10, 50, 100, 250, 600} {
		if a, b := cf.BestEffort(c), num.BestEffort(c); math.Abs(a-b) > 1e-6 {
			t.Errorf("B(%g): closed %v vs quadrature %v", c, a, b)
		}
		if a, b := cf.Reservation(c), num.Reservation(c); math.Abs(a-b) > 1e-6 {
			t.Errorf("R(%g): closed %v vs quadrature %v", c, a, b)
		}
	}
}

func TestExpRampClosedFormVsQuadrature(t *testing.T) {
	for _, a := range []float64{0.25, 0.5, 0.9} {
		cf, err := NewExpRamp(kbar, a)
		if err != nil {
			t.Fatal(err)
		}
		num, err := NewNumeric(expDensity(t), rampFn(t, a), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{20, 100, 300} {
			if x, y := cf.BestEffort(c), num.BestEffort(c); math.Abs(x-y) > 1e-6 {
				t.Errorf("a=%g B(%g): closed %v vs quadrature %v", a, c, x, y)
			}
			if x, y := cf.Reservation(c), num.Reservation(c); math.Abs(x-y) > 1e-6 {
				t.Errorf("a=%g R(%g): closed %v vs quadrature %v", a, c, x, y)
			}
			if x, y := cf.PerformanceGap(c), num.PerformanceGap(c); math.Abs(x-y) > 1e-6 {
				t.Errorf("a=%g δ(%g): closed %v vs quadrature %v", a, c, x, y)
			}
		}
	}
}

func TestAlgRigidClosedFormVsQuadrature(t *testing.T) {
	for _, z := range []float64{2.5, 3, 4} {
		cf, err := NewAlgRigid(z)
		if err != nil {
			t.Fatal(err)
		}
		num, err := NewNumeric(algDensity(t, z), rigidFn(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{2, 8, 50, 400} {
			if x, y := cf.BestEffort(c), num.BestEffort(c); math.Abs(x-y) > 1e-6 {
				t.Errorf("z=%g B(%g): closed %v vs quadrature %v", z, c, x, y)
			}
			if x, y := cf.Reservation(c), num.Reservation(c); math.Abs(x-y) > 1e-6 {
				t.Errorf("z=%g R(%g): closed %v vs quadrature %v", z, c, x, y)
			}
			if x, y := cf.PerformanceGap(c), num.PerformanceGap(c); math.Abs(x-y) > 1e-6 {
				t.Errorf("z=%g δ(%g): closed %v vs quadrature %v", z, c, x, y)
			}
		}
	}
}

func TestAlgRampClosedFormVsQuadrature(t *testing.T) {
	for _, a := range []float64{0.3, 0.7} {
		for _, z := range []float64{2.5, 3} {
			cf, err := NewAlgRamp(z, a)
			if err != nil {
				t.Fatal(err)
			}
			num, err := NewNumeric(algDensity(t, z), rampFn(t, a), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []float64{3, 20, 150} {
				if x, y := cf.BestEffort(c), num.BestEffort(c); math.Abs(x-y) > 1e-6 {
					t.Errorf("z=%g a=%g B(%g): closed %v vs quadrature %v", z, a, c, x, y)
				}
				if x, y := cf.Reservation(c), num.Reservation(c); math.Abs(x-y) > 1e-6 {
					t.Errorf("z=%g a=%g R(%g): closed %v vs quadrature %v", z, a, c, x, y)
				}
				if x, y := cf.PerformanceGap(c), num.PerformanceGap(c); math.Abs(x-y) > 1e-6 {
					t.Errorf("z=%g a=%g δ(%g): closed %v vs quadrature %v", z, a, c, x, y)
				}
				y, err := num.BandwidthGap(c)
				if err != nil {
					t.Fatal(err)
				}
				if x := cf.BandwidthGap(c); math.Abs(x-y) > 1e-6*(1+y) {
					t.Errorf("z=%g a=%g Δ(%g): closed %v vs quadrature %v", z, a, c, x, y)
				}
			}
		}
	}
}

func TestExpRigidBandwidthGapLaw(t *testing.T) {
	cf, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	// Δ solves βΔ = ln(1+β(C+Δ)); for large C it tracks ln(1+βC)/β.
	for _, c := range []float64{200, 1000, 5000, 50000} {
		g, err := cf.BandwidthGap(c)
		if err != nil {
			t.Fatal(err)
		}
		// Definition check: B(C+Δ) = R(C).
		if got, want := cf.BestEffort(c+g), cf.Reservation(c); math.Abs(got-want) > 1e-9 {
			t.Errorf("B(C+Δ) = %v, want R(C) = %v at C=%g", got, want, c)
		}
		// The log law is asymptotic: only hold it to account at large C.
		if c >= 5000 {
			law := ExpRigidGapLaw(1/kbar, c)
			if math.Abs(g-law) > 0.1*law {
				t.Errorf("Δ(%g) = %v, log law ≈ %v", c, g, law)
			}
		}
	}
}

func TestExpRampGapConvergesToConstant(t *testing.T) {
	cf, err := NewExpRamp(kbar, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	limit := cf.GapLimit()
	if want := -math.Log(1-0.6) * kbar; math.Abs(limit-want) > 1e-12 {
		t.Errorf("GapLimit = %v, want %v", limit, want)
	}
	g, err := cf.BandwidthGap(5000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-limit) > 0.02*limit {
		t.Errorf("Δ(5000) = %v, limit %v", g, limit)
	}
}

func TestAlgRigidGapLinear(t *testing.T) {
	cf, err := NewAlgRigid(3)
	if err != nil {
		t.Fatal(err)
	}
	// z = 3: ratio = 2, slope = 1, and the closed form satisfies the
	// definition B(C+Δ) = R(C) exactly.
	if r := cf.GapRatio(); math.Abs(r-2) > 1e-12 {
		t.Errorf("GapRatio = %v, want 2", r)
	}
	for _, c := range []float64{5, 50, 500} {
		g := cf.BandwidthGap(c)
		if got, want := cf.BestEffort(c+g), cf.Reservation(c); math.Abs(got-want) > 1e-12 {
			t.Errorf("B(C+Δ) = %v, want R(C) = %v at C=%g", got, want, c)
		}
		if math.Abs(g/c-1) > 1e-12 {
			t.Errorf("Δ(%g)/C = %v, want 1", c, g/c)
		}
	}
}

func TestAlgRigidGapRatioApproachesEAsZTo2(t *testing.T) {
	prev := 0.0
	for _, z := range []float64{4, 3, 2.5, 2.2, 2.05, 2.01} {
		cf, err := NewAlgRigid(z)
		if err != nil {
			t.Fatal(err)
		}
		r := cf.GapRatio()
		if r <= prev {
			t.Errorf("GapRatio(z=%g) = %v not increasing toward e", z, r)
		}
		if r >= math.E {
			t.Errorf("GapRatio(z=%g) = %v exceeds e", z, r)
		}
		prev = r
	}
	cf, _ := NewAlgRigid(2.0001)
	if r := cf.GapRatio(); math.Abs(r-math.E) > 1e-3 {
		t.Errorf("GapRatio(z→2⁺) = %v, want → e = %v", r, math.E)
	}
	if WorstCaseGapSlope() != math.E-1 || WorstCaseGammaLimit() != math.E {
		t.Error("worst-case constants wrong")
	}
}

func TestExpRigidWelfareClosedForms(t *testing.T) {
	cf, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	num, err := NewNumeric(expDensity(t), rigidFn(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.01, 0.1, 0.3} {
		cb, err := cf.ProvisionBestEffort(p)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := num.ProvisionBestEffort(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cb.Welfare-nb.Welfare) > 1e-3*(1+nb.Welfare) {
			t.Errorf("W_B(%g): closed %v vs numeric %v", p, cb.Welfare, nb.Welfare)
		}
		cr, err := cf.ProvisionReservation(p)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := num.ProvisionReservation(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cr.Welfare-nr.Welfare) > 1e-3*(1+nr.Welfare) {
			t.Errorf("W_R(%g): closed %v vs numeric %v", p, cr.Welfare, nr.Welfare)
		}
	}
}

func TestExpRigidGammaConvergesToOne(t *testing.T) {
	cf, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	// Convergence is doubly logarithmic (γ − 1 ~ ln ln(1/p)/ln(1/p)), so
	// even p = 1e-12 leaves γ ≈ 1.1; check monotone descent and the rate.
	prev := math.Inf(1)
	for _, p := range []float64{0.1, 0.01, 1e-3, 1e-5, 1e-9, 1e-12} {
		g, err := cf.GammaEqualize(p)
		if err != nil {
			t.Fatal(err)
		}
		if g < 1 || g > prev {
			t.Errorf("γ(%g) = %v not decreasing toward 1 (prev %v)", p, g, prev)
		}
		prev = g
		if p <= 1e-5 {
			l := math.Log(1 / p)
			if approx := 1 + math.Log(l)/l; math.Abs(g-approx) > 0.5*(approx-1) {
				t.Errorf("γ(%g) = %v, doubly-log approximation ≈ %v", p, g, approx)
			}
		}
	}
	if prev > 1.15 {
		t.Errorf("γ(1e-12) = %v, should be within 0.15 of 1", prev)
	}
}

func TestAlgRigidGammaConstant(t *testing.T) {
	// The paper's key heavy-tail result: γ(p) → (z−1)^(1/(z−2)) as p → 0
	// (equal to the bandwidth-gap ratio), not 1.
	for _, z := range []float64{2.5, 3, 4} {
		cf, err := NewAlgRigid(z)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cf.GammaEqualize(1e-7)
		if err != nil {
			t.Fatal(err)
		}
		if want := cf.GapRatio(); math.Abs(g-want) > 2e-2*want {
			t.Errorf("z=%g: γ(1e-7) = %v, want → GapRatio = %v", z, g, want)
		}
	}
}

func TestAlgRigidWelfareClosedFormVsNumeric(t *testing.T) {
	cf, err := NewAlgRigid(3)
	if err != nil {
		t.Fatal(err)
	}
	num, err := NewNumeric(algDensity(t, 3), rigidFn(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.001, 0.01, 0.1} {
		cb, err := cf.ProvisionBestEffort(p)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := num.ProvisionBestEffort(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cb.Welfare-nb.Welfare) > 1e-3*(1+nb.Welfare) {
			t.Errorf("W_B(%g): closed %v vs numeric %v", p, cb.Welfare, nb.Welfare)
		}
	}
}

func TestAlgRampRatioInterpolatesRigid(t *testing.T) {
	cf3, err := NewAlgRigid(3)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for _, a := range []float64{0.1, 0.3, 0.6, 0.9, 0.999} {
		r, err := NewAlgRamp(3, a)
		if err != nil {
			t.Fatal(err)
		}
		ratio := r.GapRatio()
		if ratio < prev-1e-12 {
			t.Errorf("GapRatio not increasing in a at a=%g: %v after %v", a, ratio, prev)
		}
		prev = ratio
	}
	// a → 1 recovers the rigid ratio.
	r, _ := NewAlgRamp(3, 0.999999)
	if math.Abs(r.GapRatio()-cf3.GapRatio()) > 1e-3 {
		t.Errorf("GapRatio(a→1) = %v, rigid = %v", r.GapRatio(), cf3.GapRatio())
	}
}

func TestAlgRampGammaMatchesGapRatio(t *testing.T) {
	// The paper's identity lim_{p→0} γ(p) = lim_{C→∞} (C+Δ)/C also holds
	// in the adaptive case.
	r, err := NewAlgRamp(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.GammaEqualize(1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.GapRatio(); math.Abs(g-want) > 2e-2*want {
		t.Errorf("γ(1e-7) = %v, want GapRatio = %v", g, want)
	}
}

func TestSlowTailGapExponentRegimes(t *testing.T) {
	cases := []struct {
		z, tau, want float64
	}{
		{3, 2, 1},      // τ > z−2: linear
		{3.5, 1.5, 1},  // τ = z−2: boundary, linear
		{4, 1.5, 0.5},  // z−3 < τ < z−2: sublinear growth
		{4.5, 1, -0.5}, // τ < z−3: shrinking gap
	}
	for _, c := range cases {
		if got := SlowTailGapExponent(c.z, c.tau); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("exponent(z=%g, τ=%g) = %v, want %v", c.z, c.tau, got, c.want)
		}
	}
}

func TestSlowTailNumericMatchesExponent(t *testing.T) {
	// Measure the growth exponent of Δ(C) numerically and compare with the
	// §3.3 prediction, for one case in each regime.
	cases := []struct {
		z, tau float64
	}{
		{3, 2},   // linear regime
		{4, 1.5}, // sublinear regime
		{4.5, 1}, // shrinking regime
	}
	for _, cse := range cases {
		st, err := utility.NewSlowTail(cse.tau)
		if err != nil {
			t.Fatal(err)
		}
		num, err := NewNumeric(algDensity(t, cse.z), st, st.KStar)
		if err != nil {
			t.Fatal(err)
		}
		c1, c2 := 300.0, 1200.0
		g1, err := num.BandwidthGap(c1)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := num.BandwidthGap(c2)
		if err != nil {
			t.Fatal(err)
		}
		got := math.Log(g2/g1) / math.Log(c2/c1)
		want := SlowTailGapExponent(cse.z, cse.tau)
		if math.Abs(got-want) > 0.15 {
			t.Errorf("z=%g τ=%g: measured exponent %v, predicted %v (Δ=%v→%v)",
				cse.z, cse.tau, got, want, g1, g2)
		}
	}
}

func TestExtensionRatioFormulas(t *testing.T) {
	if got := SamplingAlgRigidRatio(3, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("sampling S=1 should reduce to basic ratio 2, got %v", got)
	}
	if got := SamplingAlgRigidRatio(3, 2); math.Abs(got-4) > 1e-12 {
		t.Errorf("sampling z=3 S=2: got %v, want 4", got)
	}
	if got := RetryAlgRigidRatio(3, 0.1); math.Abs(got-20) > 1e-12 {
		t.Errorf("retry z=3 α=0.1: got %v, want 20", got)
	}
	// Divergence as z → 2⁺ for S > 1 and for retries: the basic model's
	// e-bounds disappear.
	if SamplingAlgRigidRatio(2.05, 2) < 100 {
		t.Error("sampling ratio should blow up as z → 2⁺")
	}
	if RetryAlgRigidRatio(2.05, 0.1) < 1e6 {
		t.Error("retry ratio should blow up as z → 2⁺")
	}
	// Ramp variants interpolate: below the rigid value, above 1.
	if r := SamplingAlgRampRatio(3, 0.5, 2); !(r > 1 && r < 4) {
		t.Errorf("sampling ramp ratio out of range: %v", r)
	}
	if r := RetryAlgRampRatio(3, 0.5, 0.1); !(r > 1 && r < 20) {
		t.Errorf("retry ramp ratio out of range: %v", r)
	}
}

func TestSamplingExpRigidLawShape(t *testing.T) {
	// The sampling law reduces to the basic δ at S = 1 and grows with S.
	beta := 1 / kbar
	c := 300.0
	base := SamplingExpRigidGapLaw(beta, c, 1)
	cf, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	if want := cf.PerformanceGap(c); math.Abs(base-want) > 1e-12 {
		t.Errorf("S=1 law %v vs basic δ %v", base, want)
	}
	if SamplingExpRigidGapLaw(beta, c, 5) <= base {
		t.Error("sampling law should grow with S")
	}
}

func TestClosedFormValidation(t *testing.T) {
	if _, err := NewExpRigid(0); err == nil {
		t.Error("zero mean should fail")
	}
	if _, err := NewExpRamp(0, 0.5); err == nil {
		t.Error("zero mean should fail")
	}
	if _, err := NewExpRamp(100, 1); err == nil {
		t.Error("a = 1 should fail (use the rigid case)")
	}
	if _, err := NewAlgRigid(1.5); err == nil {
		t.Error("z ≤ 2 should fail")
	}
	if _, err := NewAlgRamp(3, 0); err == nil {
		t.Error("a = 0 should fail")
	}
	cf, _ := NewExpRigid(kbar)
	if _, err := cf.ProvisionBestEffort(0); err == nil {
		t.Error("zero price should fail")
	}
	if _, err := cf.ProvisionReservation(-1); err == nil {
		t.Error("negative price should fail")
	}
}

func TestClosedFormDegeneratePrices(t *testing.T) {
	cf, _ := NewExpRigid(kbar)
	// Price above 1/e: best-effort buys nothing.
	pb, err := cf.ProvisionBestEffort(0.5)
	if err != nil || pb.Welfare != 0 {
		t.Errorf("W_B(0.5) = %+v, %v", pb, err)
	}
	// Price above 1: reservations buy nothing either, γ = 1.
	pr, err := cf.ProvisionReservation(1.5)
	if err != nil || pr.Welfare != 0 {
		t.Errorf("W_R(1.5) = %+v, %v", pr, err)
	}
	g, err := cf.GammaEqualize(0.9)
	if err != nil || g != 1 {
		t.Errorf("γ(0.9) = %v, %v (want degenerate 1)", g, err)
	}
}

func TestNumericGammaMatchesClosedForm(t *testing.T) {
	cf, err := NewAlgRigid(3)
	if err != nil {
		t.Fatal(err)
	}
	num, err := NewNumeric(algDensity(t, 3), rigidFn(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.01
	gNum, err := num.GammaEqualize(p)
	if err != nil {
		t.Fatal(err)
	}
	gCf, err := cf.GammaEqualize(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gNum-gCf) > 0.02*gCf {
		t.Errorf("numeric γ(%g) = %v vs closed form %v", p, gNum, gCf)
	}
}

func TestNumericZeroCapacity(t *testing.T) {
	num, err := NewNumeric(expDensity(t), rigidFn(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if num.BestEffort(0) != 0 || num.Reservation(-1) != 0 {
		t.Error("nonpositive capacity should give zero utility")
	}
	if num.MeanLoad() != kbar {
		t.Errorf("mean = %v", num.MeanLoad())
	}
}
