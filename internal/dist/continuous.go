package dist

import (
	"fmt"
	"math"
)

// Continuous is a probability density over continuous load levels k ≥ 0,
// used by the paper's continuum model (§3.2).
type Continuous interface {
	// PDF returns the density p(x).
	PDF(x float64) float64
	// CDF returns P(K ≤ x).
	CDF(x float64) float64
	// Mean returns ∫ x p(x) dx.
	Mean() float64
	// TailProb returns P(K > x).
	TailProb(x float64) float64
	// TailMean returns ∫_x^∞ t p(t) dt.
	TailMean(x float64) float64
}

// ExpDensity is the continuum exponential load density p(k) = β e^(−βk),
// k ≥ 0, with mean 1/β.
type ExpDensity struct {
	beta float64
}

// NewExpDensity returns the exponential density with rate beta > 0.
func NewExpDensity(beta float64) (ExpDensity, error) {
	if !(beta > 0) {
		return ExpDensity{}, fmt.Errorf("dist: continuum exponential rate must be positive, got %g", beta)
	}
	return ExpDensity{beta: beta}, nil
}

// PDF returns β e^(−βx) for x ≥ 0.
func (e ExpDensity) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.beta * math.Exp(-e.beta*x)
}

// CDF returns 1 − e^(−βx).
func (e ExpDensity) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return -math.Expm1(-e.beta * x)
}

// Mean returns 1/β.
func (e ExpDensity) Mean() float64 { return 1 / e.beta }

// TailProb returns e^(−βx).
func (e ExpDensity) TailProb(x float64) float64 {
	if x < 0 {
		return 1
	}
	return math.Exp(-e.beta * x)
}

// TailMean returns ∫_x^∞ t β e^(−βt) dt = e^(−βx)(x + 1/β).
func (e ExpDensity) TailMean(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-e.beta*x) * (x + 1/e.beta)
}

// AlgDensity is the continuum algebraic load density of the paper,
// p(k) = (z−1) k^(−z) for k ≥ 1 (and 0 below 1), with z > 2 so the mean
// (z−1)/(z−2) is finite.
type AlgDensity struct {
	z float64
}

// NewAlgDensity returns the algebraic density with tail power z > 2.
func NewAlgDensity(z float64) (AlgDensity, error) {
	if !(z > 2) {
		return AlgDensity{}, fmt.Errorf("dist: continuum algebraic tail power must exceed 2, got %g", z)
	}
	return AlgDensity{z: z}, nil
}

// PDF returns (z−1) x^(−z) for x ≥ 1.
func (a AlgDensity) PDF(x float64) float64 {
	if x < 1 {
		return 0
	}
	return (a.z - 1) * math.Pow(x, -a.z)
}

// CDF returns 1 − x^(1−z) for x ≥ 1.
func (a AlgDensity) CDF(x float64) float64 {
	if x < 1 {
		return 0
	}
	return 1 - math.Pow(x, 1-a.z)
}

// Mean returns (z−1)/(z−2).
func (a AlgDensity) Mean() float64 { return (a.z - 1) / (a.z - 2) }

// TailProb returns x^(1−z) for x ≥ 1.
func (a AlgDensity) TailProb(x float64) float64 {
	if x < 1 {
		return 1
	}
	return math.Pow(x, 1-a.z)
}

// TailMean returns ∫_x^∞ t (z−1) t^(−z) dt = (z−1)/(z−2) · x^(2−z) for
// x ≥ 1.
func (a AlgDensity) TailMean(x float64) float64 {
	if x < 1 {
		x = 1
	}
	return (a.z - 1) / (a.z - 2) * math.Pow(x, 2-a.z)
}
