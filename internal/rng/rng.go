// Package rng provides the deterministic random samplers used by the
// flow-level simulator: exponential, Poisson, Pareto, and inversion
// sampling from any discrete load distribution. All samplers draw from an
// explicit source so simulations are reproducible from a seed.
package rng

import (
	"fmt"
	"math"
	"math/rand/v2"

	"beqos/internal/dist"
)

// Source is a seeded random source. It wraps math/rand/v2's PCG generator,
// holding the generator and its Rand by value so a Source is one
// allocation; r draws from pcg, so a Source must not be copied.
type Source struct {
	pcg rand.PCG
	r   rand.Rand
}

// New returns a deterministic source seeded from the two words.
func New(seed1, seed2 uint64) *Source {
	s := &Source{pcg: *rand.NewPCG(seed1, seed2)}
	s.r = *rand.New(&s.pcg)
	return s
}

// Substream derives the i-th independent substream seed pair from a base
// seed via SplitMix64 finalization. Each (base, i) maps to a decorrelated
// PCG seed pair, so parallel replications can draw from disjoint streams
// that depend only on the base seed and the replicate index — never on
// scheduling order.
func Substream(seed1, seed2 uint64, i uint64) (uint64, uint64) {
	const golden = 0x9e3779b97f4a7c15
	return splitmix64(seed1 + (2*i+1)*golden), splitmix64(seed2 ^ (2*i+2)*golden)
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014).
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform integer in [0, n).
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Poisson returns a Poisson variate with the given mean. Small means use
// Knuth's product method (expected mean+1 uniforms); means above 30 use
// Hörmann's PTRS transformed-rejection sampler, which draws an expected
// O(1) uniforms at any mean — constant time where the previously used
// chunked product method was linear in the mean (~mean/30 inner loops at
// the simulator's k̄ ≈ 100 regime).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		return s.poissonPTRS(mean)
	}
	return s.poissonKnuth(mean)
}

func (s *Source) poissonKnuth(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS is Hörmann's PTRS algorithm ("The transformed rejection
// method for generating Poisson random variables", 1993), exact for
// mean ≥ 10: a transformed uniform proposes k, a squeeze accepts the bulk
// with one comparison, and the rare leftover goes through the exact
// log-density test. Acceptance probability stays above ≈ 0.92 for all
// means, so the expected number of uniforms drawn is constant.
func (s *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := math.Log(mean)
	for {
		u := s.r.Float64() - 0.5
		v := s.r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-lg {
			return int(k)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return s.r.NormFloat64()*stddev + mean
}

// LogNormal returns exp(Normal(mu, sigma)). Note mu and sigma are the
// log-scale parameters, not the variate's mean and deviation: the mean is
// exp(mu + sigma²/2).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Gamma returns a gamma variate with the given shape k > 0 and scale
// θ > 0 (mean k·θ) via Marsaglia & Tsang's squeeze method ("A simple
// method for generating gamma variables", 2000). Shapes below 1 use the
// boosting identity Gamma(k) = Gamma(k+1)·U^(1/k).
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape < 1 {
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Pareto returns a Pareto variate with scale xm > 0 and shape alpha > 0:
// P(X > x) = (xm/x)^alpha for x ≥ xm.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm * math.Pow(u, -1/alpha)
}

// DiscreteSampler draws variates from an arbitrary dist.Discrete by
// inversion against a cached CDF table, falling back to quantile search in
// the far tail so heavy-tailed distributions remain exact.
type DiscreteSampler struct {
	d   dist.Discrete
	cdf []float64 // cdf[k] = CDF(k)
}

// NewDiscreteSampler builds a sampler for d. The table covers the bulk of
// the distribution (to the 1−2⁻³⁰ quantile).
func NewDiscreteSampler(d dist.Discrete) (*DiscreteSampler, error) {
	if d == nil {
		return nil, fmt.Errorf("rng: nil distribution")
	}
	top := d.Quantile(1 - math.Pow(2, -30))
	if top < 1 {
		top = 1
	}
	cdf := make([]float64, top+1)
	for k := 0; k <= top; k++ {
		cdf[k] = d.CDF(k)
	}
	return &DiscreteSampler{d: d, cdf: cdf}, nil
}

// Sample draws one variate.
func (ds *DiscreteSampler) Sample(s *Source) int {
	u := s.Float64()
	// Binary search the cached table.
	lo, hi := 0, len(ds.cdf)-1
	if u <= ds.cdf[hi] {
		for lo < hi {
			mid := lo + (hi-lo)/2
			if ds.cdf[mid] >= u {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	// Far tail: exact quantile search on the distribution itself.
	return ds.d.Quantile(u)
}
