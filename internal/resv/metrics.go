package resv

import (
	"time"

	"beqos/internal/obs"
)

// ServerMetrics is the admission plane's instrument set, always on: every
// Server owns one, registered in its private obs.Registry (Server.Registry
// serves it at /metrics). All instruments are atomics; the reserve→grant
// hot path updates them with one batched flush per decoded frame batch, so
// instrumentation adds no allocation and no per-frame clock reads.
type ServerMetrics struct {
	// Reserves counts admission requests (MsgRequest frames); Grants and
	// Denials partition their outcomes (plus Errors for malformed or
	// duplicate requests).
	Reserves *obs.Counter
	Grants   *obs.Counter
	Denials  *obs.Counter
	// Teardowns counts explicit MsgTeardown releases; Releases counts
	// flows released implicitly by a connection drop; Expiries counts
	// soft-state TTL expirations.
	Teardowns *obs.Counter
	Releases  *obs.Counter
	Expiries  *obs.Counter
	// Refreshes and Stats count the remaining request types; Errors counts
	// MsgError replies of any cause.
	Refreshes *obs.Counter
	Stats     *obs.Counter
	Errors    *obs.Counter
	// DupReserves counts retransmitted reserves answered from the live
	// entry (datagram transport): grant frames re-sent without a second
	// admission. Grants + DupReserves = grant frames on the wire;
	// Grants alone = admissions.
	DupReserves *obs.Counter
	// Datagrams counts UDP datagrams received; BadDatagrams counts the
	// ones dropped before dispatch (wrong size, bad magic/version/type).
	Datagrams    *obs.Counter
	BadDatagrams *obs.Counter
	// Connections tracks live client connections; UDPPeers tracks live
	// datagram virtual connections (distinct source addresses holding
	// flows or mid-dispatch).
	Connections *obs.Gauge
	UDPPeers    *obs.Gauge
	// BatchFrames is the frames-per-read-batch histogram — the batched
	// frame I/O's coalescing factor. RequestNS is the per-request service
	// time in nanoseconds (decode + dispatch, amortized over the batch).
	BatchFrames *obs.Histogram
	RequestNS   *obs.Histogram
}

// newServerMetrics registers the server instrument set in reg.
func newServerMetrics(reg *obs.Registry) *ServerMetrics {
	return &ServerMetrics{
		Reserves:     reg.Counter("resv_reserves_total", "admission requests received"),
		Grants:       reg.Counter("resv_grants_total", "reservations granted"),
		Denials:      reg.Counter("resv_denials_total", "reservations denied (link full)"),
		Teardowns:    reg.Counter("resv_teardowns_total", "explicit teardowns"),
		Releases:     reg.Counter("resv_releases_total", "flows released by connection drops"),
		Expiries:     reg.Counter("resv_expiries_total", "soft-state TTL expirations"),
		Refreshes:    reg.Counter("resv_refreshes_total", "soft-state refreshes"),
		Stats:        reg.Counter("resv_stats_total", "stats requests"),
		Errors:       reg.Counter("resv_errors_total", "error replies"),
		DupReserves:  reg.Counter("resv_dup_reserves_total", "retransmitted reserves answered from the live grant"),
		Datagrams:    reg.Counter("resv_datagrams_total", "UDP datagrams received"),
		BadDatagrams: reg.Counter("resv_bad_datagrams_total", "UDP datagrams dropped before dispatch"),
		Connections:  reg.Gauge("resv_connections", "live client connections"),
		UDPPeers:     reg.Gauge("resv_udp_peers", "live datagram virtual connections"),
		BatchFrames:  reg.Histogram("resv_batch_frames", "frames per decoded read batch"),
		RequestNS:    reg.Histogram("resv_request_ns", "per-request service time, nanoseconds"),
	}
}

// batchStats tallies one frame batch's outcomes in plain locals; the
// handler flushes them to the shared atomics once per batch, keeping the
// per-frame cost at zero even under heavy pipelining.
type batchStats struct {
	reserves, grants, denials         uint64
	teardowns, refreshes, stats, errs uint64
	// dups counts grant frames re-sent for retransmitted reserves;
	// dispatch moves them out of grants so grants counts admissions only.
	dups uint64
}

// count classifies one dispatched request/reply pair.
func (b *batchStats) count(req, reply Frame) {
	if req.Type == MsgRequest {
		b.reserves++
	}
	switch reply.Type {
	case MsgGrant:
		b.grants++
	case MsgDeny:
		b.denials++
	case MsgTeardownOK:
		b.teardowns++
	case MsgRefreshOK:
		b.refreshes++
	case MsgStatsReply:
		b.stats++
	case MsgError:
		b.errs++
	}
}

// countBody classifies the ops of one batch body: bit i of verdict
// reports op i, and of errs that it failed as an error.
func (b *batchStats) countBody(ops []Frame, verdict, errs BatchVerdict) {
	for i, f := range ops {
		if f.Type == MsgRequest {
			b.reserves++
		}
		switch {
		case errs.Granted(i):
			b.errs++
		case f.Type == MsgTeardown:
			b.teardowns++
		case verdict.Granted(i):
			b.grants++
		default:
			b.denials++
		}
	}
}

// flushBatch folds one batch into the shared instruments: one atomic add
// per touched counter, one histogram sample for the batch size, and the
// batch's service time spread evenly over its frames (RecordN — a single
// atomic add).
func (m *ServerMetrics) flushBatch(b *batchStats, nframes int, elapsed time.Duration) {
	if nframes <= 0 {
		return
	}
	m.BatchFrames.Record(uint64(nframes))
	m.RequestNS.RecordN(uint64(elapsed)/uint64(nframes), uint64(nframes))
	if b.reserves > 0 {
		m.Reserves.Add(b.reserves)
	}
	if b.grants > 0 {
		m.Grants.Add(b.grants)
	}
	if b.denials > 0 {
		m.Denials.Add(b.denials)
	}
	if b.teardowns > 0 {
		m.Teardowns.Add(b.teardowns)
	}
	if b.refreshes > 0 {
		m.Refreshes.Add(b.refreshes)
	}
	if b.stats > 0 {
		m.Stats.Add(b.stats)
	}
	if b.errs > 0 {
		m.Errors.Add(b.errs)
	}
	if b.dups > 0 {
		m.DupReserves.Add(b.dups)
	}
	*b = batchStats{}
}

// ClientMetrics instruments a Client (or several sharing one set): request
// and outcome counts, retry attempts, and the round-trip-time histogram.
// All updates are atomic, so one set may be shared across connections —
// the loadgen harness aggregates its whole endpoint pool this way.
type ClientMetrics struct {
	Requests  *obs.Counter // reservation requests sent
	Grants    *obs.Counter
	Denials   *obs.Counter
	Teardowns *obs.Counter
	Refreshes *obs.Counter
	Retries   *obs.Counter // retry attempts performed by ReserveWithRetry
	Errors    *obs.Counter // MsgError replies
	Failures  *obs.Counter // transport-level round-trip failures
	// Retransmits counts datagram re-sends after a reply timeout; Flights
	// is the sends-per-round-trip histogram (1 = no loss). Both stay zero
	// on stream transports.
	Retransmits *obs.Counter
	Flights     *obs.Histogram
	RTT         *obs.Histogram
}

// NewClientMetrics registers a client instrument set in reg.
func NewClientMetrics(reg *obs.Registry) *ClientMetrics {
	return &ClientMetrics{
		Requests:    reg.Counter("resv_client_requests_total", "reservation requests sent"),
		Grants:      reg.Counter("resv_client_grants_total", "grants received"),
		Denials:     reg.Counter("resv_client_denials_total", "denials received"),
		Teardowns:   reg.Counter("resv_client_teardowns_total", "teardown confirmations received"),
		Refreshes:   reg.Counter("resv_client_refreshes_total", "refresh confirmations received"),
		Retries:     reg.Counter("resv_client_retries_total", "retry attempts performed"),
		Errors:      reg.Counter("resv_client_errors_total", "error replies received"),
		Failures:    reg.Counter("resv_client_failures_total", "transport round-trip failures"),
		Retransmits: reg.Counter("resv_client_retransmits_total", "datagram re-sends after reply timeout"),
		Flights:     reg.Histogram("resv_client_flights", "datagram sends per round trip"),
		RTT:         reg.Histogram("resv_client_rtt_ns", "request round-trip time, nanoseconds"),
	}
}

// observe classifies one round trip.
func (m *ClientMetrics) observe(req, reply Frame, rtt time.Duration, err error) {
	if req.Type == MsgRequest {
		m.Requests.Inc()
	}
	if err != nil {
		m.Failures.Inc()
		return
	}
	m.RTT.Record(uint64(rtt))
	switch reply.Type {
	case MsgGrant:
		m.Grants.Inc()
	case MsgDeny:
		m.Denials.Inc()
	case MsgTeardownOK:
		m.Teardowns.Inc()
	case MsgRefreshOK:
		m.Refreshes.Inc()
	case MsgError:
		m.Errors.Inc()
	}
}

// observeBatch classifies one batch round trip op by op, so client
// tallies stay in exact agreement with the server's per-op counters: a
// request op's verdict bit maps to a grant or denial, a teardown op's to
// a teardown or error. (A duplicate request also clears its bit — the
// server counts it as an error — but well-behaved clients never send
// duplicates, so the grant/denial equality the load harness checks
// holds exactly.)
func (m *ClientMetrics) observeBatch(ops []Frame, v BatchVerdict, rtt time.Duration, err error) {
	var reqs uint64
	for _, f := range ops {
		if f.Type == MsgRequest {
			reqs++
		}
	}
	if reqs > 0 {
		m.Requests.Add(reqs)
	}
	if err != nil {
		m.Failures.Inc()
		return
	}
	m.RTT.Record(uint64(rtt))
	var grants, denials, teardowns, errs uint64
	for i, f := range ops {
		switch ok := v.Granted(i); {
		case f.Type == MsgRequest && ok:
			grants++
		case f.Type == MsgRequest:
			denials++
		case ok:
			teardowns++
		default:
			errs++
		}
	}
	if grants > 0 {
		m.Grants.Add(grants)
	}
	if denials > 0 {
		m.Denials.Add(denials)
	}
	if teardowns > 0 {
		m.Teardowns.Add(teardowns)
	}
	if errs > 0 {
		m.Errors.Add(errs)
	}
}
