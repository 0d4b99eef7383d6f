package dist

import (
	"fmt"
	"math"

	"beqos/internal/numeric"
)

// Algebraic is the paper's discrete algebraic (power-law) load distribution,
//
//	P(k) = ν / (λ + k^z),  k ≥ 1,
//
// with tail power z > 2 so the mean is finite. The two-parameter form lets
// the mean vary while holding the asymptotic power-law tail ν·k^(−z) fixed,
// exactly as the paper describes ("k^(−z) versus ν/(λ+k^z)"): λ perturbs
// the distribution only at low k. This form reproduces the paper's Figure 4
// values (δ ≈ .20 at C = 2k̄ and ≈ .10 at C = 4k̄ for z = 3), which the
// shifted form ν(λ+k)^(−z) does not.
//
// Moments and tails have no closed form; they are computed once at
// construction as exact backward partial sums up to a switch point far past
// the low-k perturbation, closed with a midpoint-rule integral for the
// smooth remainder (relative error ≲ 10⁻⁷ of the remainder itself).
type Algebraic struct {
	z, lambda float64
	norm      float64 // ν
	// suffix0[m] = Σ_{k=m}^{kts} (λ+k^z)^(−1), suffix1 likewise with a k
	// factor, suffix2 with k². Index 1 … kts+1 (entry kts+1 is 0).
	suffix0, suffix1, suffix2 []float64
	tail0, tail1, tail2       float64 // integrals beyond kts
	kts                       int
	mean                      float64
}

// NewAlgebraic returns the algebraic distribution with tail power z > 2 and
// shift lambda ≥ 0.
func NewAlgebraic(z, lambda float64) (Algebraic, error) {
	if !(z > 2) {
		return Algebraic{}, fmt.Errorf("dist: algebraic tail power must exceed 2 for a finite mean, got %g", z)
	}
	if !(lambda >= 0) || math.IsInf(lambda, 0) {
		return Algebraic{}, fmt.Errorf("dist: algebraic shift must be nonnegative and finite, got %g", lambda)
	}
	a := Algebraic{z: z, lambda: lambda}
	// The perturbation matters for k^z ≲ λ, i.e. k ≲ λ^(1/z); switch to the
	// integral tail well beyond that and beyond the midpoint-error floor.
	// For very large λ the PMF is essentially flat on the unit scale
	// everywhere, so the midpoint integral is accurate from a small fixed
	// switch point and the summed prefix can stay short (the tail is then
	// evaluated by quadrature rather than the series).
	scale := math.Pow(lambda+1, 1/z)
	kts := 2048
	if 16*scale <= 1<<17 {
		kts = int(16*scale) + 2048
	}
	a.kts = kts
	a.tail0 = algTailIntegral(lambda, z, 0, float64(kts)+0.5)
	a.tail1 = algTailIntegral(lambda, z, 1, float64(kts)+0.5)
	if z > 3 {
		a.tail2 = algTailIntegral(lambda, z, 2, float64(kts)+0.5)
	} else {
		a.tail2 = math.Inf(1)
	}
	a.suffix0 = make([]float64, kts+2)
	a.suffix1 = make([]float64, kts+2)
	a.suffix2 = make([]float64, kts+2)
	a.suffix2[kts+1] = 0
	for k := kts; k >= 1; k-- {
		kf := float64(k)
		fk := 1 / (lambda + math.Pow(kf, z))
		a.suffix0[k] = a.suffix0[k+1] + fk
		a.suffix1[k] = a.suffix1[k+1] + kf*fk
		a.suffix2[k] = a.suffix2[k+1] + kf*kf*fk
	}
	a.norm = 1 / (a.suffix0[1] + a.tail0)
	a.mean = a.norm * (a.suffix1[1] + a.tail1)
	return a, nil
}

// NewAlgebraicMean returns the algebraic distribution with tail power z,
// with λ calibrated so the mean equals the given value. The achievable
// means start at ζ(z−1)/ζ(z) (the λ = 0 pure power law); smaller requests
// are an error.
func NewAlgebraicMean(z, mean float64) (Algebraic, error) {
	if !(z > 2) {
		return Algebraic{}, fmt.Errorf("dist: algebraic tail power must exceed 2, got %g", z)
	}
	minMean := numeric.RiemannZeta(z-1) / numeric.RiemannZeta(z)
	if !(mean >= minMean) {
		return Algebraic{}, fmt.Errorf("dist: algebraic(z=%g) mean must be ≥ %.6g, got %g", z, minMean, mean)
	}
	meanAt := func(lambda float64) float64 {
		d, err := NewAlgebraic(z, lambda)
		if err != nil {
			return math.NaN()
		}
		return d.Mean()
	}
	// The continuum limit gives mean ≈ λ^(1/z)·sin(π/z)/sin(2π/z) for large
	// λ; use it as a warm start for a secant iteration, falling back to a
	// bracketed Brent solve if the secant wanders.
	ratio := math.Sin(math.Pi/z) / math.Sin(2*math.Pi/z)
	l0 := math.Pow(mean/ratio, z)
	l1 := l0 * 1.05
	f0, f1 := meanAt(l0)-mean, meanAt(l1)-mean
	for i := 0; i < 24 && f1 != f0; i++ {
		if math.Abs(f1) <= 1e-10*mean {
			return NewAlgebraic(z, l1)
		}
		next := l1 - f1*(l1-l0)/(f1-f0)
		if !(next >= 0) || math.IsNaN(next) || next > 1e18 {
			break
		}
		l0, f0 = l1, f1
		l1 = next
		f1 = meanAt(l1) - mean
	}
	if math.Abs(f1) <= 1e-10*mean {
		return NewAlgebraic(z, l1)
	}
	// Fallback: bracket geometrically and solve with Brent.
	hi := math.Pow(mean, z)*4 + 4
	for meanAt(hi) < mean {
		hi *= 4
		if hi > 1e18 {
			return Algebraic{}, fmt.Errorf("dist: cannot bracket algebraic mean %g", mean)
		}
	}
	lambda, err := numeric.Brent(func(l float64) float64 { return meanAt(l) - mean }, 0, hi, 1e-7)
	if err != nil {
		return Algebraic{}, fmt.Errorf("dist: calibrating algebraic mean: %w", err)
	}
	return NewAlgebraic(z, lambda)
}

// PMF returns P(k).
func (a Algebraic) PMF(k int) float64 {
	if k < 1 {
		return 0
	}
	return a.norm / (a.lambda + math.Pow(float64(k), a.z))
}

// CDF returns P(K ≤ k).
func (a Algebraic) CDF(k int) float64 {
	if k < 1 {
		return 0
	}
	return 1 - a.TailProb(k)
}

// Mean returns the calibrated mean load.
func (a Algebraic) Mean() float64 { return a.mean }

// tailSum returns Σ_{j>k} j^pow·P(j)/ν using the precomputed suffixes for
// k below the switch point and the midpoint integral beyond.
func (a Algebraic) tailSum(k, pow int) float64 {
	if k < 1 {
		k = 0
	}
	if k < a.kts {
		var s, t float64
		switch pow {
		case 0:
			s, t = a.suffix0[k+1], a.tail0
		case 1:
			s, t = a.suffix1[k+1], a.tail1
		default:
			s, t = a.suffix2[k+1], a.tail2
		}
		return s + t
	}
	return algTailIntegral(a.lambda, a.z, pow, float64(k)+0.5)
}

// algTailIntegral returns ∫_M^∞ x^pow/(λ+x^z) dx. When λ·M^(−z) is small
// it uses the expansion 1/(λ+x^z) = x^(−z)·Σ_j (−λ x^(−z))^j (five terms
// reach near machine precision at the switch point's 16^(−z) ratio);
// otherwise it falls back to quadrature with the substitution scaled to the
// tail's decay scale λ^(1/z).
func algTailIntegral(lambda, z float64, pow int, m float64) float64 {
	if lambda*math.Pow(m, -z) > 1e-4 {
		scale := math.Max(m, math.Pow(lambda, 1/z))
		return numeric.IntegrateToInfScaled(func(x float64) float64 {
			return math.Pow(x, float64(pow)) / (lambda + math.Pow(x, z))
		}, m, scale, 1e-15)
	}
	var sum, coef float64
	coef = 1
	for j := 0; j < 5; j++ {
		expo := float64(j+1)*z - float64(pow) - 1
		sum += coef * math.Pow(m, -expo) / expo
		coef *= -lambda
	}
	return sum
}

// TailProb returns P(K > k).
func (a Algebraic) TailProb(k int) float64 {
	if k < 1 {
		return 1
	}
	return a.norm * a.tailSum(k, 0)
}

// TailMean returns Σ_{j>k} j·P(j).
func (a Algebraic) TailMean(k int) float64 {
	return a.norm * a.tailSum(k, 1)
}

// SquareTailMean returns Σ_{j>k} j²·P(j). It is +Inf when z ≤ 3, where the
// second moment genuinely diverges.
func (a Algebraic) SquareTailMean(k int) float64 {
	if a.z <= 3 {
		return math.Inf(1)
	}
	return a.norm * a.tailSum(k, 2)
}

// Quantile returns the smallest k with CDF(k) ≥ p.
func (a Algebraic) Quantile(p float64) int {
	return quantileByScan(a, p, int(a.mean)+1)
}

// WithMean implements Family: same tail power z, recalibrated λ.
func (a Algebraic) WithMean(mean float64) (Discrete, error) {
	d, err := NewAlgebraicMean(a.z, mean)
	if err != nil {
		return nil, err
	}
	return d, nil
}
