package continuum

import (
	"math"
	"testing"
)

func TestExpRigidSamplingReducesToBasic(t *testing.T) {
	sp, err := NewExpRigidSampling(kbar, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{50, 200, 800} {
		if got, want := sp.BestEffort(c), base.BestEffort(c); math.Abs(got-want) > 1e-15 {
			t.Errorf("S=1 B(%g) = %v, want %v", c, got, want)
		}
		g1, err := sp.BandwidthGap(c)
		if err != nil {
			t.Fatal(err)
		}
		g0, err := base.BandwidthGap(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g1-g0) > 1e-6*(1+g0) {
			t.Errorf("S=1 Δ(%g) = %v, basic %v", c, g1, g0)
		}
	}
}

func TestExpRigidSamplingPaperLaw(t *testing.T) {
	// δ_S(C) ≈ e^(−βC)(S(1+βC) − 1) for large C.
	for _, s := range []int{2, 5, 10} {
		sp, err := NewExpRigidSampling(kbar, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{600, 1000} {
			got := sp.PerformanceGap(c)
			want := SamplingExpRigidGapLaw(1/kbar, c, s)
			if math.Abs(got-want) > 0.08*want {
				t.Errorf("S=%d δ(%g) = %v, law %v", s, c, got, want)
			}
		}
	}
}

func TestExpRigidSamplingGapDefinition(t *testing.T) {
	sp, err := NewExpRigidSampling(kbar, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{100, 400, 2000} {
		g, err := sp.BandwidthGap(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sp.BestEffort(c+g), sp.Reservation(c); math.Abs(got-want) > 1e-9 {
			t.Errorf("B_S(C+Δ) = %v, want R = %v at C=%g", got, want, c)
		}
	}
	if _, err := NewExpRigidSampling(kbar, 0); err == nil {
		t.Error("S = 0 should fail")
	}
}

func TestAlgRigidSamplingAsymptoticRatio(t *testing.T) {
	// (C+Δ)/C → (S(z−1))^(1/(z−2)).
	for _, tc := range []struct {
		z float64
		s int
	}{{3, 2}, {3, 10}, {4, 5}} {
		sp, err := NewAlgRigidSampling(tc.z, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		c := 1e5
		g, err := sp.BandwidthGap(c)
		if err != nil {
			t.Fatal(err)
		}
		got := (c + g) / c
		want := SamplingAlgRigidRatio(tc.z, tc.s)
		if math.Abs(got-want) > 5e-3*want {
			t.Errorf("z=%g S=%d ratio = %v, want %v", tc.z, tc.s, got, want)
		}
	}
}

// TestAlgRigidSamplingReducesToBasic: with S = 1 the sampling curves are
// the basic closed forms (δ against its own formula, not R − B), and with
// S = 5 the gap follows δ_S(C) ≈ C^(2−z)·(S − 1/(z−1)) for large C.
func TestAlgRigidSamplingReducesToBasic(t *testing.T) {
	base, err := NewAlgRigid(3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewAlgRigidSampling(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{2, 50, 800} {
		if got, want := sp.BestEffort(c), base.BestEffort(c); got != want {
			t.Errorf("S=1 B(%g) = %v, want %v", c, got, want)
		}
		if got, want := sp.Reservation(c), base.Reservation(c); got != want {
			t.Errorf("S=1 R(%g) = %v, want %v", c, got, want)
		}
		if got, want := sp.PerformanceGap(c), base.PerformanceGap(c); math.Abs(got-want) > 1e-12 {
			t.Errorf("S=1 δ(%g) = %v, want %v", c, got, want)
		}
	}
	sp5, err := NewAlgRigidSampling(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	const c = 1e4
	if got, want := sp5.PerformanceGap(c), math.Pow(c, -1)*(5-0.5); math.Abs(got-want) > 1e-3*want {
		t.Errorf("S=5 δ(%g) = %v, want ≈ %v", c, got, want)
	}
}

func TestAlgRigidSamplingGapExceedsBasic(t *testing.T) {
	base, err := NewAlgRigid(3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewAlgRigidSampling(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := 100.0
	g, err := sp.BandwidthGap(c)
	if err != nil {
		t.Fatal(err)
	}
	if g <= base.BandwidthGap(c) {
		t.Errorf("sampling Δ(%g) = %v not above basic %v", c, g, base.BandwidthGap(c))
	}
}

func TestExpRigidRetryEquilibrium(t *testing.T) {
	rt, err := NewExpRigidRetry(kbar, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lhat, theta, err := rt.Equilibrium(150)
	if err != nil {
		t.Fatal(err)
	}
	if lhat < kbar || !(theta > 0 && theta < 1) {
		t.Errorf("equilibrium (%v, %v) implausible", lhat, theta)
	}
	// Self-consistency.
	if want := kbar * (1 + theta/(1-theta)); math.Abs(lhat-want) > 1e-6*want {
		t.Errorf("L̂ = %v, want %v", lhat, want)
	}
	// Storm at tiny capacity.
	if _, _, err := rt.Equilibrium(5); err == nil {
		t.Error("tiny capacity should be a retry storm")
	}
}

func TestExpRigidRetryLargeCApproachesPaperLimit(t *testing.T) {
	// R̃(C) → 1 − α·e^(−βC) for large C (the only disutility is the retry
	// penalty).
	rt, err := NewExpRigidRetry(kbar, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{600, 1000} {
		r, err := rt.Reservation(c)
		if err != nil {
			t.Fatal(err)
		}
		theta := math.Exp(-c / kbar)
		want := 1 - 0.1*theta
		// The paper's limit is first-order in θ; allow its O(θ²) error.
		if math.Abs(r-want) > 2*theta*theta+1e-12 {
			t.Errorf("R̃(%g) = %v, want ≈ %v (±%g)", c, r, want, 2*theta*theta)
		}
	}
}

func TestExpRigidRetryBeatsBasic(t *testing.T) {
	rt, err := NewExpRigidRetry(kbar, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{150, 300} {
		r, err := rt.Reservation(c)
		if err != nil {
			t.Fatal(err)
		}
		if r <= base.Reservation(c) {
			t.Errorf("R̃(%g) = %v not above basic %v", c, r, base.Reservation(c))
		}
	}
}

func TestAlgRigidRetryAsymptoticRatio(t *testing.T) {
	// (C+Δ)/C → ((z−1)/α)^(1/(z−2)).
	for _, tc := range []struct{ z, alpha float64 }{{3, 0.1}, {3, 0.5}, {4, 0.1}} {
		rt, err := NewAlgRigidRetry(tc.z, kbar, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		c := 1e6
		g, err := rt.BandwidthGap(c)
		if err != nil {
			t.Fatal(err)
		}
		got := (c + g) / c
		want := RetryAlgRigidRatio(tc.z, tc.alpha)
		if math.Abs(got-want) > 1e-2*want {
			t.Errorf("z=%g α=%g ratio = %v, want %v", tc.z, tc.alpha, got, want)
		}
	}
}

func TestAlgRigidRetryValidation(t *testing.T) {
	if _, err := NewAlgRigidRetry(2, 100, 0.1); err == nil {
		t.Error("z = 2 should fail")
	}
	if _, err := NewAlgRigidRetry(3, -1, 0.1); err == nil {
		t.Error("negative mean should fail")
	}
	if _, err := NewExpRigidRetry(0, 0.1); err == nil {
		t.Error("zero mean should fail")
	}
	if _, err := NewExpRigidRetry(100, -1); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestContinuumRetryMatchesDiscreteDirection(t *testing.T) {
	// Both treatments agree on the direction and order of magnitude of the
	// retry amplification for the exponential case at moderate C.
	rt, err := NewExpRigidRetry(kbar, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewExpRigid(kbar)
	if err != nil {
		t.Fatal(err)
	}
	c := 200.0
	dRetry, err := rt.PerformanceGap(c)
	if err != nil {
		t.Fatal(err)
	}
	dBasic := base.PerformanceGap(c)
	if !(dRetry > dBasic && dRetry < 4*dBasic) {
		t.Errorf("retry δ̃(%g) = %v vs basic %v: expected moderate amplification", c, dRetry, dBasic)
	}
}
