package utility

import (
	"math"
	"testing"
	"testing/quick"
)

// bare strips any optional interfaces (KMaxer, Differentiable) from a
// utility function, forcing generic code paths.
type bare struct{ f Function }

func (b bare) Name() string           { return b.f.Name() }
func (b bare) Eval(x float64) float64 { return b.f.Eval(x) }

func allFunctions(t *testing.T) []Function {
	t.Helper()
	rigid, err := NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	ramp, err := NewRamp(0.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSlowTail(1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPowerRamp(2)
	if err != nil {
		t.Fatal(err)
	}
	return []Function{rigid, NewAdaptive(), Elastic{}, ramp, st, pr}
}

func TestValidateAll(t *testing.T) {
	for _, f := range allFunctions(t) {
		if err := Validate(f); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestKappaStarMatchesPaper(t *testing.T) {
	// The paper reports κ = 0.62086.
	if got := KappaStar(); math.Abs(got-0.62086) > 5e-6 {
		t.Errorf("κ* = %v, want 0.62086", got)
	}
}

func TestAdaptiveStationarityAtOne(t *testing.T) {
	a := NewAdaptive()
	// π(1) = π′(1) makes b = 1 the per-flow operating point maximizing
	// total utility, hence kmax(C) = C.
	if diff := a.Eval(1) - a.Deriv(1); math.Abs(diff) > 1e-12 {
		t.Errorf("π(1) − π′(1) = %v", diff)
	}
}

func TestAdaptiveAsymptotes(t *testing.T) {
	a := NewAdaptive()
	// Small b: π(b) ≈ b²/κ, with next-order relative error O(b/κ).
	for _, b := range []float64{1e-4, 1e-3} {
		want := b * b / a.Kappa
		if got := a.Eval(b); math.Abs(got-want) > 2*(b/a.Kappa)*want {
			t.Errorf("π(%g) = %v, want ≈ %v", b, got, want)
		}
	}
	// Large b: π(b) ≈ 1 − e^(−b).
	for _, b := range []float64{50.0, 200.0} {
		want := -math.Expm1(-b)
		if got := a.Eval(b); math.Abs(got-want) > 1e-6 {
			t.Errorf("π(%g) = %v, want ≈ %v", b, got, want)
		}
	}
}

func TestAdaptiveDerivativeMatchesFiniteDifference(t *testing.T) {
	// Elastic's analytic derivative is held to the same check.
	for _, f := range []interface {
		Function
		Differentiable
	}{NewAdaptive(), Elastic{}} {
		prop := func(seed float64) bool {
			b := 0.01 + math.Mod(math.Abs(seed), 20)
			h := 1e-6 * (1 + b)
			fd := (f.Eval(b+h) - f.Eval(b-h)) / (2 * h)
			return math.Abs(fd-f.Deriv(b)) < 1e-5*(1+math.Abs(fd))
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestRigidEval(t *testing.T) {
	r, _ := NewRigid(1)
	cases := []struct{ b, want float64 }{
		{0, 0}, {0.999, 0}, {1, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := r.Eval(c.b); got != c.want {
			t.Errorf("rigid π(%g) = %v, want %v", c.b, got, c.want)
		}
	}
	if _, err := NewRigid(0); err == nil {
		t.Error("zero requirement should fail")
	}
}

func TestRigidKMax(t *testing.T) {
	r, _ := NewRigid(1)
	for _, c := range []struct {
		cap  float64
		want int
	}{{0.5, 0}, {1, 1}, {7.9, 7}, {100, 100}} {
		k, ok := KMax(r, c.cap)
		if !ok || k != c.want {
			t.Errorf("rigid kmax(%g) = %d,%v, want %d", c.cap, k, ok, c.want)
		}
	}
	r2, _ := NewRigid(2)
	if k, _ := KMax(r2, 10); k != 5 {
		t.Errorf("rigid(b̂=2) kmax(10) = %d, want 5", k)
	}
}

func TestElasticHasNoFiniteKMax(t *testing.T) {
	if _, ok := KMax(Elastic{}, 100); ok {
		t.Error("elastic should report no finite kmax")
	}
	// The generic scanner must agree.
	if _, ok := KMax(bare{Elastic{}}, 100); ok {
		t.Error("generic scan should detect elastic divergence")
	}
}

func TestKMaxClosedFormsMatchGenericScan(t *testing.T) {
	rigid, _ := NewRigid(1)
	ramp, _ := NewRamp(0.3)
	st, _ := NewSlowTail(2)
	pr, _ := NewPowerRamp(3)
	for _, f := range []Function{rigid, NewAdaptive(), ramp, st, pr} {
		for _, c := range []float64{3.5, 10, 47.2, 100} {
			closed, ok1 := KMax(f, c)
			scanned, ok2 := KMax(bare{f}, c)
			if ok1 != ok2 {
				t.Errorf("%s kmax(%g): finiteness disagrees", f.Name(), c)
				continue
			}
			// The argmax may be non-unique on plateaus (e.g. ramp/rigid
			// where V(k) = k up to C); require equal V, not equal k.
			v1 := TotalUtility(f, c, closed)
			v2 := TotalUtility(f, c, scanned)
			if math.Abs(v1-v2) > 1e-12*(1+math.Abs(v2)) {
				t.Errorf("%s kmax(%g): closed %d (V=%v) vs scan %d (V=%v)",
					f.Name(), c, closed, v1, scanned, v2)
			}
		}
	}
}

func TestKMaxIsArgmaxProperty(t *testing.T) {
	// For every inelastic function and capacity, V(kmax) ≥ V(kmax ± 1).
	rigid, _ := NewRigid(1)
	ramp, _ := NewRamp(0.7)
	st, _ := NewSlowTail(1.5)
	fs := []Function{rigid, NewAdaptive(), ramp, st}
	prop := func(seedF, seedC uint32) bool {
		f := fs[int(seedF)%len(fs)]
		c := 1 + float64(seedC%5000)/10
		k, ok := KMax(f, c)
		if !ok {
			return false
		}
		v := TotalUtility(f, c, k)
		return v >= TotalUtility(f, c, k-1)-1e-12 &&
			v >= TotalUtility(f, c, k+1)-1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRampShape(t *testing.T) {
	r, _ := NewRamp(0.25)
	cases := []struct{ b, want float64 }{
		{0.1, 0}, {0.25, 0}, {0.625, 0.5}, {1, 1}, {3, 1},
	}
	for _, c := range cases {
		if got := r.Eval(c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ramp π(%g) = %v, want %v", c.b, got, c.want)
		}
	}
	if _, err := NewRamp(0); err == nil {
		t.Error("a = 0 should fail")
	}
	if _, err := NewRamp(1.5); err == nil {
		t.Error("a > 1 should fail")
	}
}

func TestRampAtOneIsRigid(t *testing.T) {
	r, _ := NewRamp(1)
	rigid, _ := NewRigid(1)
	for b := 0.0; b <= 3; b += 0.05 {
		if r.Eval(b) != rigid.Eval(b) {
			t.Errorf("ramp(a=1) π(%g) = %v, rigid gives %v", b, r.Eval(b), rigid.Eval(b))
		}
	}
}

func TestSlowTailKStar(t *testing.T) {
	s, _ := NewSlowTail(1)
	// τ = 1: k* = C/2.
	if got := s.KStar(100); math.Abs(got-50) > 1e-12 {
		t.Errorf("k*(100) = %v, want 50", got)
	}
	if _, err := NewSlowTail(0); err == nil {
		t.Error("τ = 0 should fail")
	}
}

func TestPowerRampKMax(t *testing.T) {
	low, _ := NewPowerRamp(0.5)
	if _, ok := low.KMax(100); ok {
		t.Error("τ ≤ 1 should report no finite kmax")
	}
	hi, _ := NewPowerRamp(2)
	if k, ok := hi.KMax(100); !ok || k != 100 {
		t.Errorf("powerramp(2) kmax(100) = %d,%v", k, ok)
	}
	if _, err := NewPowerRamp(-1); err == nil {
		t.Error("negative τ should fail")
	}
}

func TestTotalUtility(t *testing.T) {
	rigid, _ := NewRigid(1)
	if got := TotalUtility(rigid, 10, 5); got != 5 {
		t.Errorf("V(5) = %v, want 5", got)
	}
	if got := TotalUtility(rigid, 10, 20); got != 0 {
		t.Errorf("V(20) = %v, want 0 (each share below b̂)", got)
	}
	if got := TotalUtility(rigid, 10, 0); got != 0 {
		t.Errorf("V(0) = %v, want 0", got)
	}
}

func TestKMaxZeroCapacity(t *testing.T) {
	for _, f := range allFunctions(t) {
		if k, _ := KMax(f, 0); k != 0 {
			t.Errorf("%s kmax(0) = %d, want 0", f.Name(), k)
		}
	}
}
