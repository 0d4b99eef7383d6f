// Package rng provides the deterministic random samplers used by the
// flow-level simulator and the workload streams: exponential, normal,
// log-normal, gamma and Pareto variates, and seed substreams for parallel
// replications. All samplers draw from an explicit source so simulations
// are reproducible from a seed.
package rng

import (
	"math"
	"math/rand/v2"
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

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
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
