package policy

import (
	"math"
	"sync"
	"testing"
)

func newCounting(t *testing.T, capacity float64, kmax int) *Counting {
	t.Helper()
	p, err := NewCounting(capacity, kmax)
	if err != nil {
		t.Fatalf("NewCounting: %v", err)
	}
	return p
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewCounting(0, 4); err == nil {
		t.Error("NewCounting accepted capacity 0")
	}
	if _, err := NewCounting(math.Inf(1), 4); err == nil {
		t.Error("NewCounting accepted infinite capacity")
	}
	if _, err := NewCounting(4, 0); err == nil {
		t.Error("NewCounting accepted kmax 0")
	}
	if _, err := NewBandwidth(math.NaN()); err == nil {
		t.Error("NewBandwidth accepted NaN capacity")
	}
	inner := newCounting(t, 4, 4)
	if _, err := NewTokenBucket(nil, 1, 1); err == nil {
		t.Error("NewTokenBucket accepted nil inner policy")
	}
	if _, err := NewTokenBucket(inner, 0, 1); err == nil {
		t.Error("NewTokenBucket accepted rate 0")
	}
	if _, err := NewTokenBucket(inner, 1, 0.5); err == nil {
		t.Error("NewTokenBucket accepted burst < 1 (a bucket that can never admit)")
	}
	if _, err := NewTiered(4, 4, 2, 3); err == nil {
		t.Error("NewTiered accepted sheddable > standard")
	}
	if _, err := NewTiered(4, 4, 5, 1); err == nil {
		t.Error("NewTiered accepted standard > kmax")
	}
	if _, err := NewTiered(4, 4, 4, 0); err == nil {
		t.Error("NewTiered accepted sheddable 0")
	}
	if _, err := NewMeasured(4, 0, 4, 1); err == nil {
		t.Error("NewMeasured accepted kmax 0")
	}
	if _, err := NewMeasured(4, 4, 0, 1); err == nil {
		t.Error("NewMeasured accepted target 0")
	}
	if _, err := NewMeasured(4, 4, 4, 0); err == nil {
		t.Error("NewMeasured accepted tau 0")
	}
}

func TestCountingSemantics(t *testing.T) {
	p := newCounting(t, 100, 4)
	if p.Mode() != ModeCount || p.Bound() != 4 || p.Capacity() != 100 {
		t.Fatalf("counting identity wrong: mode %v bound %d capacity %g", p.Mode(), p.Bound(), p.Capacity())
	}
	for i := 0; i < 4; i++ {
		d := p.Admit(0, uint64(i), 0, ClassStandard)
		if !d.Admit || d.Share != 25 {
			t.Fatalf("admit %d: %+v", i, d)
		}
	}
	d := p.Admit(0, 9, 0, ClassStandard)
	if d.Admit {
		t.Fatal("admitted past the bound")
	}
	if d.Load != 4 {
		t.Fatalf("deny load = %g, want observed active 4", d.Load)
	}
	if p.Share(123) != 25 {
		t.Fatalf("Share = %g, want worst-case 25 regardless of rate", p.Share(123))
	}
	p.Release(0, 0)
	if p.Active() != 3 || p.Allocated() != 3 {
		t.Fatalf("after release: active %d allocated %g", p.Active(), p.Allocated())
	}
	if !p.Admit(0, 10, 0, ClassStandard).Admit {
		t.Fatal("freed slot not reusable")
	}
}

func TestBandwidthSemantics(t *testing.T) {
	p, err := NewBandwidth(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode() != ModeBandwidth || p.Bound() != 0 {
		t.Fatalf("bandwidth identity wrong: mode %v bound %d", p.Mode(), p.Bound())
	}
	if d := p.Admit(0, 1, 6, 0); !d.Admit || d.Share != 6 {
		t.Fatalf("admit rate 6: %+v", d)
	}
	if d := p.Admit(0, 2, 5, 0); d.Admit || d.Load != 6 {
		t.Fatalf("oversubscription verdict: %+v", d)
	}
	if d := p.Admit(0, 3, 4, 0); !d.Admit {
		t.Fatalf("fitting request denied: %+v", d)
	}
	if p.Active() != 2 || p.Allocated() != 10 {
		t.Fatalf("active %d allocated %g", p.Active(), p.Allocated())
	}
	if p.Share(4) != 4 {
		t.Fatalf("Share = %g, want stored rate", p.Share(4))
	}
	p.Release(0, 6)
	p.Release(0, 4.0000000001) // float drift floors at zero
	if p.Active() != 0 || p.Allocated() != 0 {
		t.Fatalf("after drain: active %d allocated %g", p.Active(), p.Allocated())
	}
}

func TestTokenBucketShedAndRefill(t *testing.T) {
	inner := newCounting(t, 4, 4)
	p, err := NewTokenBucket(inner, 1, 2) // 1 token/s, burst 2, starts full
	if err != nil {
		t.Fatal(err)
	}
	if !p.Admit(0, 1, 0, 0).Admit || !p.Admit(0, 2, 0, 0).Admit {
		t.Fatal("burst of 2 not admitted from a full bucket")
	}
	if d := p.Admit(0, 3, 0, 0); d.Admit {
		t.Fatalf("empty bucket admitted: %+v", d)
	} else if d.Load != 2 {
		t.Fatalf("shed load = %g, want inner active 2", d.Load)
	}
	// Half a second refills half a token — still shed.
	if p.Admit(5e8, 4, 0, 0).Admit {
		t.Fatal("admitted on a fractional token")
	}
	// A full second from t=0 banks a whole token.
	if !p.Admit(1e9, 5, 0, 0).Admit {
		t.Fatal("refilled token not honored")
	}
	c := p.Calibration()
	if c.Decisions != 5 || c.Sheds != 2 || c.Blocks != 0 {
		t.Fatalf("calibration tally: %+v", c)
	}
}

func TestTokenBucketRefundsInnerDenial(t *testing.T) {
	inner := newCounting(t, 1, 1)
	p, err := NewTokenBucket(inner, 1e-9, 2) // effectively no refill
	if err != nil {
		t.Fatal(err)
	}
	if !p.Admit(0, 1, 0, 0).Admit {
		t.Fatal("first admit failed")
	}
	// Inner is full: the denial must refund the token, so after releasing
	// the flow the same token admits again.
	if d := p.Admit(0, 2, 0, 0); d.Admit {
		t.Fatal("admitted past the inner bound")
	}
	c := p.Calibration()
	if c.Blocks != 1 || c.Sheds != 0 {
		t.Fatalf("inner denial tallied wrong: %+v", c)
	}
	p.Release(0, 0)
	if !p.Admit(0, 3, 0, 0).Admit {
		t.Fatal("refunded token was lost")
	}
	// Now both tokens are spent and refill is negligible: shed.
	p.Release(0, 0)
	if p.Admit(0, 4, 0, 0).Admit {
		t.Fatal("admitted from an empty bucket")
	}
}

func TestTokenBucketDegenerateCalibration(t *testing.T) {
	inner := newCounting(t, 100, 100)
	p, err := NewTokenBucket(inner, 1e-9, 1) // one token ever: pure shedder
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d := p.Admit(int64(i), uint64(i), 0, 0)
		if d.Admit {
			p.Release(int64(i), 0)
		}
	}
	c := p.Calibration()
	if !c.Degenerate {
		t.Fatalf("bucket shedding %.0f%% of %d decisions not flagged degenerate: %+v",
			100*c.ShedFraction, c.Decisions, c)
	}
	// A healthy bucket on the same sample must not be flagged.
	h, err := NewTokenBucket(newCounting(t, 100, 100), 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Admit(int64(i), uint64(i), 0, 0)
	}
	if hc := h.Calibration(); hc.Degenerate {
		t.Fatalf("healthy bucket flagged degenerate: %+v", hc)
	}
}

func TestTieredCascade(t *testing.T) {
	p, err := NewTiered(8, 8, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bound() != 8 || p.Limit(ClassStandard) != 6 || p.Limit(ClassSheddable) != 4 || p.Limit(3) != 4 {
		t.Fatalf("limits wrong: bound %d std %d shed %d reserved %d",
			p.Bound(), p.Limit(ClassStandard), p.Limit(ClassSheddable), p.Limit(3))
	}
	// Fill to the sheddable threshold with sheddable flows.
	for i := 0; i < 4; i++ {
		if !p.Admit(0, uint64(i), 0, ClassSheddable).Admit {
			t.Fatalf("sheddable admit %d failed", i)
		}
	}
	if p.Admit(0, 10, 0, ClassSheddable).Admit {
		t.Fatal("sheddable admitted at its threshold")
	}
	if p.Admit(0, 11, 0, 3).Admit {
		t.Fatal("reserved class 3 admitted past the sheddable threshold")
	}
	// Standard still has headroom up to 6.
	for i := 0; i < 2; i++ {
		if !p.Admit(0, uint64(20+i), 0, ClassStandard).Admit {
			t.Fatalf("standard admit %d failed", i)
		}
	}
	if p.Admit(0, 30, 0, ClassStandard).Admit {
		t.Fatal("standard admitted at its threshold")
	}
	// Critical owns the last two slots.
	for i := 0; i < 2; i++ {
		if !p.Admit(0, uint64(40+i), 0, ClassCritical).Admit {
			t.Fatalf("critical admit %d failed", i)
		}
	}
	if d := p.Admit(0, 50, 0, ClassCritical); d.Admit || d.Load != 8 {
		t.Fatalf("critical past full link: %+v", d)
	}
	if p.Active() != 8 {
		t.Fatalf("active = %d, want 8", p.Active())
	}
	// Departures reopen the cascade bottom-up.
	for i := 0; i < 5; i++ {
		p.Release(0, 0)
	}
	if !p.Admit(0, 60, 0, ClassSheddable).Admit {
		t.Fatal("sheddable not re-admitted after drain")
	}
}

func TestMeasuredGate(t *testing.T) {
	// Tiny tau: the estimate tracks the instantaneous occupancy after ~1ms.
	p, err := NewMeasured(8, 8, 3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	tick := func() int64 { now += int64(1e6); return now } // +1ms per event
	for i := 0; i < 3; i++ {
		if !p.Admit(tick(), uint64(i), 0, 0).Admit {
			t.Fatalf("admit %d under target failed", i)
		}
	}
	// Estimate has converged to 3 ≥ target-1: deny, even though the hard
	// bound (8) has room.
	if d := p.Admit(tick(), 10, 0, 0); d.Admit {
		t.Fatalf("admitted above the occupancy target: %+v", d)
	} else if d.Load != 3 {
		t.Fatalf("deny load = %g, want active 3", d.Load)
	}
	// A departure is observed immediately; the freed room admits again.
	p.Release(tick(), 0)
	if !p.Admit(tick(), 11, 0, 0).Admit {
		t.Fatal("freed occupancy not admitted")
	}
}

func TestMeasuredHardBound(t *testing.T) {
	// Huge target: the gate never binds, leaving pure Counting behavior.
	p, err := NewMeasured(4, 4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !p.Admit(int64(i), uint64(i), 0, 0).Admit {
			t.Fatalf("admit %d failed", i)
		}
	}
	if d := p.Admit(5, 9, 0, 0); d.Admit || d.Load != 4 {
		t.Fatalf("hard bound verdict: %+v", d)
	}
}

// TestConcurrentAdmitRelease hammers every policy with concurrent
// admit/release churn and checks the bound and the final accounting.
func TestConcurrentAdmitRelease(t *testing.T) {
	const kmax = 8
	builders := map[string]func(t *testing.T) Policy{
		"counting": func(t *testing.T) Policy { return newCounting(t, kmax, kmax) },
		"bandwidth": func(t *testing.T) Policy {
			p, err := NewBandwidth(kmax)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"token-bucket": func(t *testing.T) Policy {
			p, err := NewTokenBucket(newCounting(t, kmax, kmax), 1e12, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"tiered": func(t *testing.T) Policy {
			p, err := NewTiered(kmax, kmax, 6, 4)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"measured": func(t *testing.T) Policy {
			p, err := NewMeasured(kmax, kmax, 1000, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			p := build(t)
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						now := int64(g*500+i) * 1000
						d := p.Admit(now, uint64(g*500+i), 1, uint8(i%NumClasses))
						if a := p.Active(); a > kmax {
							t.Errorf("active %d exceeded bound %d", a, kmax)
							return
						}
						if d.Admit {
							p.Release(now, 1)
						}
					}
				}(g)
			}
			wg.Wait()
			if p.Active() != 0 {
				t.Fatalf("final active = %d, want 0", p.Active())
			}
			if p.Allocated() != 0 {
				t.Fatalf("final allocated = %g, want 0", p.Allocated())
			}
		})
	}
}

// TestDefaultPoliciesZeroAlloc pins the default policies' hot paths at
// zero allocations — the serving plane's reserve→grant path budget.
func TestDefaultPoliciesZeroAlloc(t *testing.T) {
	c := newCounting(t, 8, 8)
	if n := testing.AllocsPerRun(1000, func() {
		if c.Admit(0, 1, 0, 0).Admit {
			c.Release(0, 0)
		}
	}); n != 0 {
		t.Errorf("counting admit/release allocates %.1f/op, want 0", n)
	}
	b, err := NewBandwidth(8)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if b.Admit(0, 1, 1, 0).Admit {
			b.Release(0, 1)
		}
	}); n != 0 {
		t.Errorf("bandwidth admit/release allocates %.1f/op, want 0", n)
	}
}

func TestModeString(t *testing.T) {
	if ModeCount.String() != "count" || ModeBandwidth.String() != "bandwidth" {
		t.Fatalf("mode strings: %q %q", ModeCount.String(), ModeBandwidth.String())
	}
}
