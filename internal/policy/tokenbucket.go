package policy

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// TokenBucket rate-limits admissions under burst: each admission consumes
// one token from a bucket refilled at rate tokens/second up to burst, and a
// request that finds the bucket empty is shed before the inner policy is
// consulted. Requests that pass the bucket are decided by the wrapped inner
// policy (normally Counting), whose CAS counter is what upholds the
// no-over-admit bound — the bucket shapes the admission *rate*, it never
// relaxes the capacity rule. An inner denial refunds the token, so capacity
// blocking does not drain the bucket: tokens meter admissions, not
// attempts.
//
// Calibration matters. A bucket provisioned well below the offered
// admission rate stops being burst protection and degenerates into blind
// load shedding (the pathology SNIPPETS.md Snippet 1 records: a 100-a-day
// bucket in front of thousands of daily requests rejects ~96% of traffic).
// The policy therefore counts its decisions and sheds, and Calibration
// flags the bucket Degenerate when a statistically meaningful sample sheds
// more than degenerateShedFrac of requests — scrape resv_policy_shed_fraction
// or check the sweep harness output rather than discovering it from user
// reports.
//
// Bucket state (token level + last refill time) is mutex-guarded: a
// two-word CAS refill can lose tokens between the load and the store, and
// the critical section is a handful of arithmetic ops. The mutex is
// per-policy, not per-shard, so configure the bucket on links where
// admission decisions — not data frames — are the rate being limited.
type TokenBucket struct {
	inner Policy
	rate  float64 // tokens per second
	burst float64

	mu     sync.Mutex
	tokens float64
	lastNs int64

	decisions atomic.Uint64
	sheds     atomic.Uint64
	blocks    atomic.Uint64 // inner-policy denials (token refunded)
}

// Degeneracy thresholds for Calibration: with at least
// degenerateMinSample decisions observed, a shed fraction above
// degenerateShedFrac means the bucket is miscalibrated for the offered
// load and is acting as a load shedder.
const (
	degenerateMinSample = 64
	degenerateShedFrac  = 0.9
)

// NewTokenBucket wraps inner with a token bucket refilled at rate
// tokens/second, holding at most burst tokens. The bucket starts full.
// burst must be ≥ 1: a bucket that can never hold a whole token admits
// nothing, which is a configuration error, not a policy.
func NewTokenBucket(inner Policy, rate, burst float64) (*TokenBucket, error) {
	if inner == nil {
		return nil, fmt.Errorf("policy: token bucket needs an inner policy")
	}
	if !(rate > 0) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("policy: token rate must be positive and finite, got %v", rate)
	}
	if !(burst >= 1) || math.IsInf(burst, 0) {
		return nil, fmt.Errorf("policy: burst must be ≥ 1, got %v", burst)
	}
	return &TokenBucket{inner: inner, rate: rate, burst: burst, tokens: burst}, nil
}

// Name implements Policy.
func (p *TokenBucket) Name() string { return "token-bucket" }

// Mode implements Policy.
func (p *TokenBucket) Mode() Mode { return p.inner.Mode() }

// Bound implements Policy.
func (p *TokenBucket) Bound() int { return p.inner.Bound() }

// Capacity implements Policy.
func (p *TokenBucket) Capacity() float64 { return p.inner.Capacity() }

// Admit implements Policy.
func (p *TokenBucket) Admit(now int64, flowID uint64, rate float64, class uint8) Decision {
	p.decisions.Add(1)
	if !p.take(now) {
		p.sheds.Add(1)
		return Decision{Load: float64(p.inner.Active())}
	}
	d := p.inner.Admit(now, flowID, rate, class)
	if !d.Admit {
		p.blocks.Add(1)
		p.refund()
	}
	return d
}

// AdmitN implements Policy: Admit over the run, stopping at the first
// denial. At one instant the bucket only drains and the inner policy only
// fills, so once one request of the run is denied every later identical
// request would be too.
func (p *TokenBucket) AdmitN(now int64, rate float64, class uint8, n int) (int, Decision) {
	var dec Decision
	for i := 0; i < n; i++ {
		d := p.Admit(now, 0, rate, class)
		if !d.Admit {
			dec.Load = d.Load
			return i, dec
		}
		dec.Admit, dec.Share = true, d.Share
	}
	return n, dec
}

// take refills the bucket to now and consumes one token if available.
func (p *TokenBucket) take(now int64) bool {
	p.mu.Lock()
	if now > p.lastNs {
		p.tokens += float64(now-p.lastNs) * p.rate / 1e9
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
		p.lastNs = now
	}
	ok := p.tokens >= 1
	if ok {
		p.tokens--
	}
	p.mu.Unlock()
	return ok
}

// refund returns a token consumed by an attempt the inner policy denied.
func (p *TokenBucket) refund() {
	p.mu.Lock()
	if p.tokens+1 <= p.burst {
		p.tokens++
	}
	p.mu.Unlock()
}

// Release implements Policy. Departures do not return tokens: the bucket
// meters the admission rate, not the standing population.
func (p *TokenBucket) Release(now int64, rate float64) { p.ReleaseN(now, rate, 1) }

// ReleaseN implements Policy.
func (p *TokenBucket) ReleaseN(now int64, rate float64, n int) { p.inner.ReleaseN(now, rate, n) }

// Share implements Policy.
func (p *TokenBucket) Share(rate float64) float64 { return p.inner.Share(rate) }

// Active implements Policy.
func (p *TokenBucket) Active() int64 { return p.inner.Active() }

// Allocated implements Policy.
func (p *TokenBucket) Allocated() float64 { return p.inner.Allocated() }

// Calibration summarizes whether the bucket fits the offered load.
type Calibration struct {
	// Decisions is the number of Admit calls observed.
	Decisions uint64
	// Sheds is how many were denied by the bucket itself (no token).
	Sheds uint64
	// Blocks is how many passed the bucket but were denied by the inner
	// policy (token refunded).
	Blocks uint64
	// ShedFraction is Sheds/Decisions (0 when no decisions yet).
	ShedFraction float64
	// Degenerate reports a miscalibrated bucket: at least
	// degenerateMinSample decisions with ShedFraction above
	// degenerateShedFrac — the bucket is load shedding, not smoothing
	// bursts.
	Degenerate bool
}

// Calibration reports the bucket's running calibration verdict.
func (p *TokenBucket) Calibration() Calibration {
	d := p.decisions.Load()
	s := p.sheds.Load()
	c := Calibration{Decisions: d, Sheds: s, Blocks: p.blocks.Load()}
	if d > 0 {
		c.ShedFraction = float64(s) / float64(d)
	}
	c.Degenerate = d >= degenerateMinSample && c.ShedFraction > degenerateShedFrac
	return c
}

// Gauges implements Instrumented.
func (p *TokenBucket) Gauges() []Gauge {
	return []Gauge{
		{Name: "tokens", Help: "Current token-bucket level.", Value: func() float64 {
			p.mu.Lock()
			t := p.tokens
			p.mu.Unlock()
			return t
		}},
		{Name: "sheds_total", Help: "Requests shed by the token bucket (no token available).", Value: func() float64 {
			return float64(p.sheds.Load())
		}},
		{Name: "shed_fraction", Help: "Fraction of admission decisions shed by the bucket (>0.9 on a meaningful sample means the bucket is miscalibrated).", Value: func() float64 {
			return p.Calibration().ShedFraction
		}},
	}
}
