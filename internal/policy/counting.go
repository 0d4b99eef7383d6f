package policy

import (
	"fmt"
	"math"
	"sync/atomic"
)

// counter is count mode's admission counter: the one active count the
// paper's rule bounds, claimed with a single CAS. Counting, Tiered and
// Measured embed it, so admit-while-active-below-the-limit is written
// once. Its own Admit and AdmitN claim at the bound with no gate, which
// is Counting; a gated policy defines every admit and release method its
// gate must see, since a promoted one would skip the gate. The deny path
// is a pure atomic load, and nothing here allocates.
type counter struct {
	capacity float64
	bound    int64
	share    float64
	active   atomic.Int64
}

// checkCapacity rejects a link capacity no policy can guard.
func checkCapacity(capacity float64) error {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return fmt.Errorf("policy: capacity must be positive and finite, got %v", capacity)
	}
	return nil
}

// init bounds c at kmax concurrent flows on a link of the given capacity.
func (c *counter) init(capacity float64, kmax int) error {
	if err := checkCapacity(capacity); err != nil {
		return err
	}
	if kmax < 1 {
		return fmt.Errorf("policy: kmax must be ≥ 1, got %d", kmax)
	}
	c.capacity, c.bound, c.share = capacity, int64(kmax), capacity/float64(kmax)
	return nil
}

// claim takes min(n, limit−active) slots in one CAS, so a run straddling
// the limit grants exactly the free slots and denies the rest — the same
// winners a serial race would pick. The Decision is the run's, as AdmitN
// returns it.
func (c *counter) claim(limit int64, n int) (int, Decision) {
	for {
		cur := c.active.Load()
		j := limit - cur
		if j <= 0 {
			return 0, Decision{Load: float64(cur)}
		}
		if int64(n) < j {
			j = int64(n)
		}
		if c.active.CompareAndSwap(cur, cur+j) {
			d := Decision{Admit: true, Share: c.share}
			if int(j) < n {
				d.Load = float64(cur + j)
			}
			return int(j), d
		}
	}
}

// Admit implements Policy.
func (c *counter) Admit(now int64, flowID uint64, rate float64, class uint8) Decision {
	_, d := c.AdmitN(now, rate, class, 1)
	return d
}

// AdmitN implements Policy.
func (c *counter) AdmitN(now int64, rate float64, class uint8, n int) (int, Decision) {
	return c.claim(c.bound, n)
}

// Mode implements Policy.
func (c *counter) Mode() Mode { return ModeCount }

// Bound implements Policy.
func (c *counter) Bound() int { return int(c.bound) }

// Capacity implements Policy.
func (c *counter) Capacity() float64 { return c.capacity }

// Release implements Policy.
func (c *counter) Release(now int64, rate float64) { c.ReleaseN(now, rate, 1) }

// ReleaseN implements Policy.
func (c *counter) ReleaseN(now int64, rate float64, n int) { c.active.Add(-int64(n)) }

// Share implements Policy.
func (c *counter) Share(rate float64) float64 { return c.share }

// Active implements Policy.
func (c *counter) Active() int64 { return c.active.Load() }

// Allocated implements Policy.
func (c *counter) Allocated() float64 { return float64(c.active.Load()) }

// Counting is the paper's reservation rule: admit iff active < kmax(C),
// where kmax is the largest population the utility function still serves
// acceptably at capacity C. It is the default policy of counting-mode
// servers and preserves their pre-policy wire behavior bit for bit: grants
// carry the worst-case share C/kmax, denials carry the observed active
// count. It is the counter with no gate in front, claimed at kmax, so
// concurrent reserves can never over-admit. Admit/Release are
// allocation-free.
type Counting struct{ counter }

// NewCounting returns a counting policy admitting at most kmax concurrent
// flows on a link of the given capacity.
func NewCounting(capacity float64, kmax int) (*Counting, error) {
	p := &Counting{}
	if err := p.init(capacity, kmax); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements Policy.
func (p *Counting) Name() string { return "counting" }

// Bandwidth admits by literal traffic specification: a request for rate r
// is admitted iff the running rate sum stays within capacity (with a small
// tolerance so repeated float adds at an exactly-full link don't deny a
// fitting request). Grants carry the granted rate, denials the allocated
// sum — the pre-policy bandwidth-mode wire behavior, bit for bit.
//
// The rate sum is CAS-maintained as float64 bits in a single atomic word,
// again the pre-policy discipline: concurrent reserves cannot oversubscribe
// the link and the deny path is lock-free. Admit/Release are
// allocation-free.
type Bandwidth struct {
	capacity  float64
	allocBits atomic.Uint64
	active    atomic.Int64
}

// bwTolerance absorbs accumulated float64 rounding when the link is
// exactly full; it matches the serving plane's historic admission check.
const bwTolerance = 1e-12

// NewBandwidth returns a bandwidth-accounting policy for a link of the
// given capacity.
func NewBandwidth(capacity float64) (*Bandwidth, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	return &Bandwidth{capacity: capacity}, nil
}

// Name implements Policy.
func (p *Bandwidth) Name() string { return "bandwidth" }

// Mode implements Policy.
func (p *Bandwidth) Mode() Mode { return ModeBandwidth }

// Bound implements Policy. Bandwidth mode has no flow-count bound.
func (p *Bandwidth) Bound() int { return 0 }

// Capacity implements Policy.
func (p *Bandwidth) Capacity() float64 { return p.capacity }

// Admit implements Policy.
func (p *Bandwidth) Admit(now int64, flowID uint64, rate float64, class uint8) Decision {
	_, d := p.AdmitN(now, rate, class, 1)
	return d
}

// AdmitN implements Policy: the largest prefix whose cumulative rate
// still fits under capacity is claimed with one CAS of the rate-sum word,
// accumulating the sum in the same left-to-right order n single Admits
// would, so the cut lands on exactly the same request.
func (p *Bandwidth) AdmitN(now int64, rate float64, class uint8, n int) (int, Decision) {
	for {
		bits := p.allocBits.Load()
		cur := math.Float64frombits(bits)
		next := cur
		j := 0
		for j < n && next+rate <= p.capacity+bwTolerance {
			next += rate
			j++
		}
		if j == 0 {
			return 0, Decision{Load: cur}
		}
		if p.allocBits.CompareAndSwap(bits, math.Float64bits(next)) {
			p.active.Add(int64(j))
			d := Decision{Admit: true, Share: rate}
			if j < n {
				d.Load = next
			}
			return j, d
		}
	}
}

// Release implements Policy.
func (p *Bandwidth) Release(now int64, rate float64) { p.ReleaseN(now, rate, 1) }

// ReleaseN implements Policy, mirroring AdmitN's sequential accumulation
// so a run's admit+release round-trips the rate sum exactly.
func (p *Bandwidth) ReleaseN(now int64, rate float64, n int) {
	for {
		bits := p.allocBits.Load()
		next := math.Float64frombits(bits)
		for i := 0; i < n; i++ {
			next -= rate
		}
		if next < 0 {
			next = 0 // float drift must never leave a phantom allocation
		}
		if p.allocBits.CompareAndSwap(bits, math.Float64bits(next)) {
			p.active.Add(-int64(n))
			return
		}
	}
}

// Share implements Policy.
func (p *Bandwidth) Share(rate float64) float64 { return rate }

// Active implements Policy.
func (p *Bandwidth) Active() int64 { return p.active.Load() }

// Allocated implements Policy.
func (p *Bandwidth) Allocated() float64 {
	return math.Float64frombits(p.allocBits.Load())
}
