package core

import (
	"math"
	"testing"

	"beqos/internal/utility"
)

func TestSamplingValidation(t *testing.T) {
	m := model(t, poisson(t), rigid(t))
	if _, err := NewSampling(m, 0); err == nil {
		t.Error("S = 0 should fail")
	}
	sp, err := NewSampling(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.S() != 3 || sp.Model() != m {
		t.Error("accessors broken")
	}
}

func TestSamplingOneReducesToBasicModel(t *testing.T) {
	// With S = 1 the sampling model must reproduce the basic model
	// exactly: the single sample is the size-biased load, and averaging
	// per-flow utility over Q(k) = k·P(k)/k̄ is identical to the
	// V/k̄ normalization of §3.1.
	for name, m := range allModels(t) {
		sp, err := NewSampling(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{10, 50, 100, 200, 400} {
			if b1, b := sp.BestEffort(c), m.BestEffort(c); math.Abs(b1-b) > 1e-7 {
				t.Errorf("%s: B_1(%g) = %v vs B = %v", name, c, b1, b)
			}
			if r1, r := sp.Reservation(c), m.Reservation(c); math.Abs(r1-r) > 1e-7 {
				t.Errorf("%s: R_1(%g) = %v vs R = %v", name, c, r1, r)
			}
		}
	}
	// So must its provisioning at a price, C(p) and W(p) of each
	// architecture; on one model, as the welfare scan is costly.
	m := model(t, exponential(t), utility.NewAdaptive())
	sp, err := NewSampling(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []struct {
		name       string
		one, basic func(float64) (Provision, error)
	}{
		{"best-effort", sp.ProvisionBestEffort, m.ProvisionBestEffort},
		{"reservation", sp.ProvisionReservation, m.ProvisionReservation},
	} {
		p1, err := arch.one(0.05)
		if err != nil {
			t.Fatal(err)
		}
		p, err := arch.basic(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1.Welfare-p.Welfare) > 1e-6*p.Welfare || math.Abs(p1.Capacity-p.Capacity) > 1e-3*p.Capacity {
			t.Errorf("%s provisioning at S = 1 %+v vs basic %+v", arch.name, p1, p)
		}
	}
}

func TestSamplingReservationDominates(t *testing.T) {
	for name, m := range allModels(t) {
		for _, s := range []int{2, 5} {
			sp, err := NewSampling(m, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []float64{25, 100, 300} {
				b, r := sp.BestEffort(c), sp.Reservation(c)
				if r < b-1e-9 {
					t.Errorf("%s S=%d: R_S(%g) = %v < B_S(%g) = %v", name, s, c, r, c, b)
				}
				if b < -1e-12 || r > 1+1e-9 {
					t.Errorf("%s S=%d: out of range at C=%g: B=%v R=%v", name, s, c, b, r)
				}
			}
		}
	}
}

func TestSamplingBestEffortDecreasesInS(t *testing.T) {
	// More samples → judged by a worse (higher) load → lower utility.
	m := model(t, exponential(t), utility.NewAdaptive())
	for _, c := range []float64{50, 150, 400} {
		prev := math.Inf(1)
		for _, s := range []int{1, 2, 4, 8, 16} {
			sp, err := NewSampling(m, s)
			if err != nil {
				t.Fatal(err)
			}
			b := sp.BestEffort(c)
			if b > prev+1e-9 {
				t.Errorf("B_S(%g) increased at S=%d: %v after %v", c, s, b, prev)
			}
			prev = b
		}
	}
}

func TestSamplingGapsGrowWithS(t *testing.T) {
	// §5.1: with both adaptive and rigid applications, the performance and
	// bandwidth gaps increase relative to the basic model for the
	// exponential and algebraic loads.
	for _, util := range []string{"rigid", "adaptive"} {
		for _, loadName := range []string{"exponential", "algebraic"} {
			m := allModels(t)[loadName+"/"+util]
			s1, err := NewSampling(m, 1)
			if err != nil {
				t.Fatal(err)
			}
			s5, err := NewSampling(m, 5)
			if err != nil {
				t.Fatal(err)
			}
			c := 200.0
			if d1, d5 := s1.PerformanceGap(c), s5.PerformanceGap(c); d5 <= d1 {
				t.Errorf("%s/%s: δ_5(%g) = %v not above δ_1 = %v", loadName, util, c, d5, d1)
			}
		}
	}
}

func TestPaperSamplingExponentialAdaptive(t *testing.T) {
	// §5.1 (S = 10): δ(2k̄) ≈ .21 (vs < .01 in the basic model), and the
	// bandwidth gap peaks around 2k̄ near C ≈ 1.5k̄ (vs a peak below .1k̄
	// in the basic model), yet still vanishes asymptotically.
	m := model(t, exponential(t), utility.NewAdaptive())
	sp, err := NewSampling(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d := sp.PerformanceGap(200); math.Abs(d-0.21) > 0.05 {
		t.Errorf("sampling exp/adaptive δ(200) = %v, paper ≈ .21", d)
	}
	if d := m.PerformanceGap(200); d >= 0.01 {
		t.Errorf("basic exp/adaptive δ(200) = %v, paper < .01", d)
	}
	var peakG, peakC float64
	for c := 40.0; c <= 400; c += 20 {
		g, gerr := sp.BandwidthGap(c)
		if gerr != nil {
			t.Fatal(gerr)
		}
		if g > peakG {
			peakG, peakC = g, c
		}
	}
	if peakG < 1.4*kbar || peakG > 2.6*kbar {
		t.Errorf("sampling Δ peak = %v, paper ≈ 2k̄", peakG)
	}
	if peakC < 1.0*kbar || peakC > 2.0*kbar {
		t.Errorf("sampling Δ peak at C = %v, paper ≈ 1.5k̄", peakC)
	}
	// Asymptotically the exponential gap still converges to zero.
	g8, err := sp.BandwidthGap(800)
	if err != nil {
		t.Fatal(err)
	}
	if g8 >= peakG/2 {
		t.Errorf("sampling Δ(800) = %v, should fall well below the peak %v", g8, peakG)
	}
}

func TestSamplingPoissonBarelyAffected(t *testing.T) {
	// §5.1: "Multiple samplings has little effect on the Poisson case
	// since this distribution results in very little variance in load."
	m := model(t, poisson(t), rigid(t))
	s1, err := NewSampling(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	s10, err := NewSampling(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{150, 200} {
		d1, d10 := s1.PerformanceGap(c), s10.PerformanceGap(c)
		if math.Abs(d10-d1) > 0.02 {
			t.Errorf("poisson/rigid: δ_10(%g) − δ_1(%g) = %v, should be small", c, c, d10-d1)
		}
	}
}

func TestSamplingGammaExceedsBasic(t *testing.T) {
	m := model(t, exponential(t), utility.NewAdaptive())
	sp, err := NewSampling(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.05
	gBasic, err := m.GammaEqualize(p)
	if err != nil {
		t.Fatal(err)
	}
	gSamp, err := sp.GammaEqualize(p)
	if err != nil {
		t.Fatal(err)
	}
	if gSamp <= gBasic {
		t.Errorf("sampling γ(%g) = %v not above basic %v", p, gSamp, gBasic)
	}
}

func TestSamplingZeroCapacity(t *testing.T) {
	m := model(t, exponential(t), rigid(t))
	sp, err := NewSampling(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.BestEffort(0) != 0 || sp.Reservation(0) != 0 {
		t.Error("nonzero utility at zero capacity")
	}
}

func TestSamplingElasticCoincides(t *testing.T) {
	m := model(t, poisson(t), utility.Elastic{})
	sp, err := NewSampling(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{50, 150} {
		if b, r := sp.BestEffort(c), sp.Reservation(c); math.Abs(b-r) > 1e-12 {
			t.Errorf("elastic sampling: R(%g)=%v ≠ B(%g)=%v", c, r, c, b)
		}
	}
}
