package core

import (
	"math"
	"testing"

	"beqos/internal/utility"
)

func TestRetryValidation(t *testing.T) {
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	if _, err := NewRetry(m, -0.5); err == nil {
		t.Error("negative penalty should fail")
	}
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Alpha() != 0.1 || rt.Model() != m {
		t.Error("accessors broken")
	}
}

func TestRetryEquilibriumShape(t *testing.T) {
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prevTheta := 1.0
	for _, c := range []float64{150, 300, 600, 1200} {
		fp, err := rt.Equilibrium(c)
		if err != nil {
			t.Fatalf("C=%g: %v", c, err)
		}
		if fp.EffectiveMean < kbar {
			t.Errorf("C=%g: L̂ = %v below k̄", c, fp.EffectiveMean)
		}
		if !(fp.Blocking > 0 && fp.Blocking < 1) {
			t.Errorf("C=%g: θ = %v out of (0,1)", c, fp.Blocking)
		}
		if want := fp.Blocking / (1 - fp.Blocking); math.Abs(fp.Retries-want) > 1e-12 {
			t.Errorf("C=%g: D = %v, want θ/(1−θ) = %v", c, fp.Retries, want)
		}
		// Self-consistency: L̂ = k̄(1 + D).
		if want := kbar * (1 + fp.Retries); math.Abs(fp.EffectiveMean-want) > 1e-3*want {
			t.Errorf("C=%g: L̂ = %v, want k̄(1+D) = %v", c, fp.EffectiveMean, want)
		}
		// Blocking falls as capacity grows.
		if fp.Blocking >= prevTheta {
			t.Errorf("C=%g: θ = %v did not fall (prev %v)", c, fp.Blocking, prevTheta)
		}
		prevTheta = fp.Blocking
	}
}

func TestRetryStormAtTinyCapacity(t *testing.T) {
	m := model(t, algebraic(t, 3), rigid(t))
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Equilibrium(0.2); err == nil {
		t.Error("capacity admitting no flows should be a retry storm")
	}
	// Deeply undersized capacity: every flow is nearly always blocked and
	// retries snowball.
	if _, err := rt.Equilibrium(2); err == nil {
		t.Error("capacity 2 at mean load 100 should be a retry storm")
	}
}

func TestRetryBeatsBasicReservation(t *testing.T) {
	// With a modest penalty, eventually-admitted flows recover utility the
	// basic model wrote off as zero: R̃ > R where blocking is material.
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{200, 400} {
		r, err := rt.Reservation(c)
		if err != nil {
			t.Fatal(err)
		}
		if base := m.Reservation(c); r <= base {
			t.Errorf("C=%g: R̃ = %v not above basic R = %v", c, r, base)
		}
		if r > 1 {
			t.Errorf("C=%g: R̃ = %v exceeds 1", c, r)
		}
	}
}

func TestRetryPenaltyMonotone(t *testing.T) {
	// Larger α → lower R̃.
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	prev := math.Inf(1)
	for _, alpha := range []float64{0, 0.1, 0.5, 1} {
		rt, err := NewRetry(m, alpha)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rt.Reservation(300)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev+1e-12 {
			t.Errorf("α=%g: R̃ = %v increased (prev %v)", alpha, r, prev)
		}
		prev = r
	}
}

func TestPaperRetryAlgebraicAmplifiesGap(t *testing.T) {
	// §5.2 (α = 0.1): the algebraic cases change significantly, with the
	// effects most apparent for C ≫ k̄; the paper reports the adaptive
	// performance gap at 4k̄ growing about tenfold (.027 vs .0025 — their
	// numbers are first-order in θ; our exact fixed point gives the same
	// ~10× amplification).
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dRetry, err := rt.PerformanceGap(400)
	if err != nil {
		t.Fatal(err)
	}
	dBasic := m.PerformanceGap(400)
	if ratio := dRetry / dBasic; ratio < 5 || ratio > 20 {
		t.Errorf("retry amplification at 4k̄ = %v, paper ≈ 10×", ratio)
	}
}

func TestPaperRetryPoissonMinimalEffect(t *testing.T) {
	// §5.2: "the Poisson and exponential cases show minimal effects of
	// retrying".
	m := model(t, poisson(t), rigid(t))
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{150, 200} {
		dRetry, err := rt.PerformanceGap(c)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(dRetry - m.PerformanceGap(c)); diff > 0.02 {
			t.Errorf("poisson/rigid retry effect at C=%g: %v, should be minimal", c, diff)
		}
	}
}

func TestPaperRetryGammaGrowsAsBandwidthCheapens(t *testing.T) {
	// §5.2: with retries in the algebraic case the γ(p) curve turns over
	// at very small p so that γ grows as bandwidth gets cheaper — "as
	// bandwidth gets cheaper, the advantage of reservation-capable
	// networks increases!"
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := rt.GammaEqualize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := rt.GammaEqualize(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(g2 > g1) {
		t.Errorf("retry γ should grow as p falls: γ(0.1)=%v γ(0.01)=%v", g1, g2)
	}
	// And it far exceeds the basic model's γ ≈ 1.02.
	gBasic, err := m.GammaEqualize(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(g2 > gBasic+0.1) {
		t.Errorf("retry γ(0.01)=%v should far exceed basic %v", g2, gBasic)
	}
	// γ is the price ratio at which reservation-capable bandwidth with
	// retries buys back best-effort welfare: W_R(γ·p) = W_B(p).
	pr, err := rt.ProvisionReservation(g2 * 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.ProvisionBestEffort(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr.Welfare-pb.Welfare) > 1e-4*pb.Welfare {
		t.Errorf("retry W_R(γ·0.01) = %v, want W_B(0.01) = %v", pr.Welfare, pb.Welfare)
	}
}

func TestRetryBandwidthGapExceedsBasic(t *testing.T) {
	m := model(t, algebraic(t, 3), utility.NewAdaptive())
	rt, err := NewRetry(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	c := 400.0
	gRetry, err := rt.BandwidthGap(c)
	if err != nil {
		t.Fatal(err)
	}
	gBasic, err := m.BandwidthGap(c)
	if err != nil {
		t.Fatal(err)
	}
	if gRetry <= gBasic {
		t.Errorf("retry Δ(%g) = %v not above basic %v", c, gRetry, gBasic)
	}
}

func TestRetryBestEffortUnchanged(t *testing.T) {
	m := model(t, exponential(t), rigid(t))
	rt, err := NewRetry(m, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{50, 200} {
		if rt.BestEffort(c) != m.BestEffort(c) {
			t.Errorf("best-effort side must be unaffected by retries at C=%g", c)
		}
	}
}
