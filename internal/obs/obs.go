// Package obs is the observability plane for the serving stack: a
// zero-allocation, lock-free metrics registry with a pull-based snapshot
// API and writers for Prometheus text and expvar-style JSON. It imports no
// net package; obs/obshttp serves a registry over HTTP, with pprof.
//
// Design rules (DESIGN.md §9):
//
//   - The observe path — Counter.Add, Gauge.Set, Histogram.Record — is
//     atomics-only: no locks, no maps, no interface boxing, no allocation.
//     Instruments are plain structs reached through pointers captured at
//     registration; the registry itself is never touched after that.
//   - Registration is rare and may lock. Duplicate names panic (programmer
//     error, like expvar.Publish).
//   - Reads are pull-based: Snapshot atomically loads every instrument into
//     plain values. Snapshots of a live registry are monotone per counter —
//     concurrent writers can only make later snapshots larger.
//   - Gauge callbacks (GaugeFunc) run only during a snapshot; they must be
//     safe to call from the scraping goroutine.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The struct is
// padded to a full cache line: counters are registered back-to-back and the
// hot ones (e.g. a server's grants and denials) are hammered from many
// goroutines — without padding they would false-share one line.
type Counter struct {
	v atomic.Uint64
	_ [cacheLineBytes - 8]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value, cache-line padded like Counter.
type Gauge struct {
	v atomic.Int64
	_ [cacheLineBytes - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc and Dec adjust the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Kind distinguishes instrument types in snapshots and exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Metric is one instrument's state at snapshot time.
type Metric struct {
	Name string
	Help string
	Kind Kind
	// Value carries the counter or gauge reading (unused for histograms).
	Value float64
	// Hist carries the merged histogram state (KindHistogram only).
	Hist *HistSnapshot
}

// metric is one registered instrument.
type metric struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	gaugeFn    func() float64
	hist       *Histogram
}

// Registry holds a fixed set of named instruments. Registration locks;
// the instruments themselves never touch the registry again, so observing
// is lock-free regardless of how many goroutines share an instrument.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]struct{}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// register appends m, panicking on a duplicate or empty name.
func (r *Registry) register(m metric) {
	if m.name == "" {
		panic("obs: metric name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic("obs: duplicate metric name " + m.name)
	}
	r.byName[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(metric{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// GaugeFunc registers a pull-only gauge: fn is evaluated at snapshot time
// and must be safe to call from the scraping goroutine (e.g. read only
// atomics, like resv.Server.Active).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metric{name: name, help: help, kind: KindGauge, gaugeFn: fn})
}

// Histogram registers and returns a new histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// Snapshot atomically reads every instrument, in registration order.
// Counter readings are monotone across snapshots of a live registry.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	ms := r.metrics // registration only appends; the prefix is immutable
	r.mu.Unlock()
	out := make([]Metric, 0, len(ms))
	for i := range ms {
		m := &ms[i]
		s := Metric{Name: m.name, Help: m.help, Kind: m.kind}
		switch {
		case m.counter != nil:
			s.Value = float64(m.counter.Load())
		case m.gauge != nil:
			s.Value = float64(m.gauge.Load())
		case m.gaugeFn != nil:
			s.Value = m.gaugeFn()
		case m.hist != nil:
			hs := m.hist.Snapshot()
			s.Hist = &hs
		}
		out = append(out, s)
	}
	return out
}

// Get returns the named metric from a fresh snapshot (ok = false when the
// name is not registered). Intended for tests and cross-checks, not hot
// paths.
func (r *Registry) Get(name string) (Metric, bool) {
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for i := range r.metrics {
		names = append(names, r.metrics[i].name)
	}
	sort.Strings(names)
	return names
}
