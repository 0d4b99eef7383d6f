package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7, 11), New(7, 11)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(7, 12)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestExpMoments(t *testing.T) {
	s := New(1, 2)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := s.Exp(5)
		sum += x
		sq += x * x
	}
	mean := sum / n
	varr := sq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("exp mean = %v, want 5", mean)
	}
	if math.Abs(varr-25) > 0.8 {
		t.Errorf("exp variance = %v, want 25", varr)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(5, 6)
	const n = 200000
	xm, alpha := 2.0, 2.5
	count := 0
	var min float64 = math.Inf(1)
	for i := 0; i < n; i++ {
		x := s.Pareto(xm, alpha)
		if x < min {
			min = x
		}
		if x > 4 {
			count++
		}
	}
	if min < xm {
		t.Errorf("Pareto below scale: %v", min)
	}
	// P(X > 4) = (2/4)^2.5 ≈ 0.1768.
	got := float64(count) / n
	if want := math.Pow(0.5, alpha); math.Abs(got-want) > 0.006 {
		t.Errorf("tail prob = %v, want %v", got, want)
	}
}

// TestSubstreamGolden pins Substream's derivation.
func TestSubstreamGolden(t *testing.T) {
	s1, s2 := Substream(7, 11, 0)
	if s1 != 0x63cbe1e459320dd7 || s2 != 0x760fec77aacb280e {
		t.Errorf("Substream(7,11,0) = %#x, %#x", s1, s2)
	}
	s1, s2 = Substream(7, 11, 1)
	if s1 != 0xe6984080bab12a02 || s2 != 0x812e6299272e6df0 {
		t.Errorf("Substream(7,11,1) = %#x, %#x", s1, s2)
	}
}

func TestSubstreamDecorrelated(t *testing.T) {
	// Streams from adjacent indices must not track each other.
	a1, a2 := Substream(42, 43, 5)
	b1, b2 := Substream(42, 43, 6)
	sa, sb := New(a1, a2), New(b1, b2)
	same := 0
	for i := 0; i < 1000; i++ {
		if sa.IntN(1000) == sb.IntN(1000) {
			same++
		}
	}
	// Expect ~1 collision per 1000 draws for independent streams.
	if same > 20 {
		t.Errorf("adjacent substreams collide %d/1000 times", same)
	}
}
