// Package policy defines the pluggable admission-control interface of the
// resv serving plane, plus the built-in policies: the paper's counting rule
// (admit iff active < kmax(C)), literal bandwidth accounting, token-bucket
// admission under burst, class-tiered admission with a priority cascade,
// and measurement-based admission from observed occupancy.
//
// A Policy is the admission decision only. The server keeps owning soft
// state (flow tables, TTL wheels, retransmit dedup); the policy owns the
// counters that bound it. Every implementation must uphold two invariants
// the serving plane's tests enforce per policy (DESIGN.md §12):
//
//   - no over-admit: concurrent Admit calls never exceed the policy's
//     bound. Count mode's built-ins claim from one atomic counter with one
//     CAS (counting at kmax, tiered at the class's threshold, measured at
//     kmax once its estimate lets the request through), so the winners of
//     a race at the boundary are exactly the first bound-n claims;
//   - exact release accounting: every admitted claim is returned exactly
//     once, by Release or ReleaseN (teardown, connection drop, TTL expiry,
//     or the server rolling back a duplicate install), so Active/Allocated
//     converge to zero when the link drains.
//
// Policies must be safe for concurrent use and, for the default counting
// and bandwidth policies, allocation-free at steady state — the serving
// plane's reserve→grant path stays at 0 allocs/op.
//
// A policy reads no clock: every call is handed its instant, now, by the
// plane that serves it. The clocked built-ins (token-bucket, measured)
// run on it; the others ignore it.
package policy

// Mode distinguishes how a policy accounts the link.
type Mode uint8

const (
	// ModeCount admits by concurrent flow count; grants carry the
	// worst-case share C/bound.
	ModeCount Mode = iota
	// ModeBandwidth admits by traffic specification; grants carry the
	// requested rate.
	ModeBandwidth
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeBandwidth {
		return "bandwidth"
	}
	return "count"
}

// Admission classes, carried in the top two bits of a resv frame's type
// byte (see the resv codec). The zero value is the standard class, so
// class-unaware clients emit byte-identical frames.
const (
	// ClassStandard is the default class.
	ClassStandard uint8 = 0
	// ClassCritical is never shed before standard traffic: tiered policies
	// admit it up to the full bound.
	ClassCritical uint8 = 1
	// ClassSheddable is the first class denied under load.
	ClassSheddable uint8 = 2
	// NumClasses is the size of the wire class space (2 bits). Class 3 is
	// reserved; tiered policies treat it as sheddable.
	NumClasses = 4
)

// Decision is one admission verdict.
type Decision struct {
	// Admit reports whether the request was admitted.
	Admit bool
	// Share is the value a grant frame carries: the guaranteed worst-case
	// share C/bound in count mode, the granted rate in bandwidth mode.
	Share float64
	// Load is the value a deny frame carries: the occupancy the decision
	// observed (active count in count mode, allocated rate in bandwidth
	// mode) — the same number the pre-policy server reported.
	Load float64
}

// Policy is one link's admission rule.
//
// now is a monotonic clock in nanoseconds: the serving plane's instant
// for the read, datagram, tick or connection release the call is part of,
// so every frame of one read reaches the policy at one instant. The
// simulator passes virtual nanoseconds (1 virtual time unit = 1s), so
// clocked policies' rates are per-second in both settings.
type Policy interface {
	// Name identifies the policy ("counting", "token-bucket", ...).
	Name() string
	// Mode reports how the policy accounts the link.
	Mode() Mode
	// Bound is the hard admission ceiling in flows (0 in bandwidth mode).
	// No policy state can make Active exceed it.
	Bound() int
	// Capacity is the link capacity C the policy guards.
	Capacity() float64
	// Admit decides one reservation request. rate is the requested
	// bandwidth (ignored in count mode) and class the frame's admission
	// class. Implementations must be lock-free or near — Admit is the
	// serving plane's hot path.
	Admit(now int64, flowID uint64, rate float64, class uint8) Decision
	// AdmitN decides a run of n identical requests (same rate and class)
	// at one instant, exactly as n Admits sent one after another would:
	// it grants the first `granted` and denies the rest. At the bound the
	// cut is exact under any concurrency — a run straddling the last j
	// free slots grants exactly j, because count mode claims all j in one
	// CAS. When granted > 0 the Decision is the grant verdict (Admit true,
	// Share set); when granted < n, Load carries the occupancy the denial
	// observed, as a single denied Admit would report it.
	AdmitN(now int64, rate float64, class uint8, n int) (granted int, dec Decision)
	// Release returns one admitted claim (rate is the granted rate in
	// bandwidth mode, ignored otherwise). Called on teardown, connection
	// release, TTL expiry, and duplicate-install rollback.
	Release(now int64, rate float64)
	// ReleaseN returns n claims of the same granted rate.
	ReleaseN(now int64, rate float64, n int)
	// Share is the grant value for a re-sent (deduplicated) grant: the
	// worst-case share in count mode, the stored rate in bandwidth mode.
	Share(rate float64) float64
	// Active is the number of live claims. Lock-free.
	Active() int64
	// Allocated is the admitted load: Σ granted rates in bandwidth mode,
	// the active count otherwise. Lock-free.
	Allocated() float64
}

// Gauge is one policy-specific observable, exported by Instrumented
// policies; the server registers each as a resv_policy_* gauge.
type Gauge struct {
	// Name is the metric suffix (the server prefixes "resv_policy_").
	Name string
	// Help is the metric description.
	Help string
	// Value reads the current value; it must be safe to call concurrently
	// with Admit/Release.
	Value func() float64
}

// Instrumented is optionally implemented by policies with internal state
// worth scraping (token level, shed counts, smoothed occupancy).
type Instrumented interface {
	Gauges() []Gauge
}
