package resv

import (
	"fmt"
	"math"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"time"

	"beqos/internal/obs"
	"beqos/internal/policy"
	"beqos/internal/utility"
)

// Server is a single-link admission controller speaking the resv protocol.
// The admission decision is delegated to a policy.Policy; the default
// (NewServer/NewServerTTL) is the paper's counting rule — at most
// kmax(C) = argmax k·π(C/k) concurrent reservations, each guaranteed the
// worst-case share C/kmax — and NewServerPolicy accepts any policy
// upholding the package's admission invariants (DESIGN.md §12).
//
// Reservations are soft state, in two senses mirroring RSVP:
//   - scoped to their connection — a connection drop releases its flows;
//   - optionally time-limited — with a TTL configured, reservations expire
//     unless the client refreshes them (Client.Refresh / Client.KeepAlive).
//
// The serving plane is built for throughput (DESIGN.md §8):
//   - soft state is lock-striped across shards keyed by a hash of the
//     flow ID, each with its own mutex, flow table, and TTL wheel; the
//     stripe count autotunes from GOMAXPROCS (see shardCountFor);
//   - the admission decision itself is a CAS on a single atomic counter,
//     so concurrent reserves never over-admit and the reject path (and
//     Active/Allocated/Stats) never takes a lock;
//   - TTL expiry is a per-shard hierarchical timing wheel (wheel.go), so a
//     refresh is an O(1) deadline update and expiry work is proportional
//     to the wheel buckets coming due, never to all flows;
//   - frame I/O is batched per connection (ServeConn): one read can yield
//     many requests, and their replies coalesce into one write
//     (flush-on-idle).
type Server struct {
	capacity float64
	kmax     int
	ttl      time.Duration

	// epoch anchors the wheels' monotonic nanosecond clock.
	epoch time.Time

	// pol owns the admission counters: reserve claims a slot through
	// pol.Admit (the built-ins CAS a single atomic bounded by kmax or
	// capacity, so racing clients can never over-admit and a full link is
	// denied lock-free) and every departure path returns it via
	// pol.Release. The server's soft state (shards, wheels, dedup) is
	// policy-independent.
	pol policy.Policy
	// shards is the lock-striped soft state: cells sharing pol. The stripe
	// count is a power of two chosen at construction from GOMAXPROCS, and
	// shardShift is the matching hash shift (64 - log2(len(shards))).
	shards     []shard
	shardShift uint

	// udpMu guards udpPeers, the datagram transport's per-source-address
	// virtual connections (udp.go). A peer's inflight count is also
	// guarded by udpMu; a peer may be reaped only when it owns no flows
	// and no reader goroutine is mid-dispatch on it.
	udpMu    sync.Mutex
	udpPeers map[string]*conn
	// expPeers is the expiry loop's scratch: datagram peers whose last flow
	// it expired, to be reaped once the shard locks are released.
	expPeers []*conn

	// reg/metrics are the server's observability plane (DESIGN.md §9):
	// always on, atomics-only, flushed once per frame batch on the hot
	// path. Registry serves them at /metrics.
	reg     *obs.Registry
	metrics *ServerMetrics

	stop     chan struct{}
	stopOnce sync.Once

	// Logf, if non-nil, receives one line per protocol event; defaults to
	// silent. Set before calling Serve.
	Logf func(format string, args ...interface{})

	// Trace, if non-nil, receives one TraceEvent per admission-path
	// decision (grant, deny, teardown, refresh, expire, release, error),
	// synchronously from the serving goroutine. The hook must be fast and
	// must not call back into the server. Set before calling Serve.
	Trace func(TraceEvent)
}

const (
	// minShards/maxShards bound the autotuned lock-stripe width of the
	// soft-state tables (see shardCountFor). Shard index is a mixed hash
	// of the flow ID, so sequential IDs spread evenly across stripes.
	minShards = 16
	maxShards = 1024
)

// shard is one lock stripe of the soft state: an admission cell whose
// holds are flows, each holding its connection.
type shard = Cell[*conn]

// conn tracks one client connection's reservations. Stream transports own
// a net.Conn; datagram peers are virtual connections keyed by source
// address (nc nil, datagram true), created on first datagram and reaped
// once they hold no flows and no dispatch is in flight.
type conn struct {
	nc net.Conn
	// datagram marks a UDP virtual connection: its client retransmits
	// requests, so a duplicate reserve is answered from the live grant
	// instead of erroring (see reserve).
	datagram bool
	// raddr is the peer's address, for logging (nc.RemoteAddr() for
	// stream connections); key is a datagram peer's udpPeers key.
	raddr net.Addr
	key   string
	// inflight counts reader goroutines mid-dispatch on this datagram
	// peer; guarded by Server.udpMu.
	inflight int
	// flows lists the connection's flows across all shards, so that a
	// dropped connection releases them.
	flows Owner[*conn]
}

// shardCountFor returns the soft-state stripe count for a machine with p
// schedulable CPUs: the next power of two ≥ 8·p, clamped to
// [minShards, maxShards]. The 8× headroom keeps the probability that two
// of p concurrently-served requests contend on one stripe low, while the
// floor preserves the old compile-time width (16) on small machines and
// the cap bounds idle-table memory on very wide ones.
func shardCountFor(p int) int {
	if p < 1 {
		p = 1
	}
	n := minShards
	for n < 8*p && n < maxShards {
		n <<= 1
	}
	return n
}

// shardFor picks a flow's stripe by Fibonacci-hashing its ID.
func (s *Server) shardFor(id uint64) *shard {
	return &s.shards[(id*0x9e3779b97f4a7c15)>>s.shardShift]
}

// now is the wheel clock: nanoseconds since the server's epoch.
func (s *Server) now() int64 {
	return int64(time.Since(s.epoch))
}

// NewServer returns an admission controller for a link of the given
// capacity whose clients run applications with the given utility function.
// Reservations persist until torn down or their connection drops.
func NewServer(capacity float64, util utility.Function) (*Server, error) {
	return NewServerTTL(capacity, util, 0)
}

// NewServerTTL is NewServer with RSVP-style soft state: reservations not
// refreshed within ttl are released. ttl = 0 disables expiry. Servers with
// a TTL run a background expiry goroutine; call Close when done with them.
func NewServerTTL(capacity float64, util utility.Function, ttl time.Duration) (*Server, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("resv: capacity must be positive and finite, got %g", capacity)
	}
	if util == nil {
		return nil, fmt.Errorf("resv: utility must be non-nil")
	}
	kmax, ok := utility.KMax(util, capacity)
	if !ok {
		return nil, fmt.Errorf("resv: utility %q is elastic; admission control does not apply", util.Name())
	}
	if kmax < 1 {
		return nil, fmt.Errorf("resv: capacity %g admits no flows (kmax = %d)", capacity, kmax)
	}
	pol, err := policy.NewCounting(capacity, kmax)
	if err != nil {
		return nil, err
	}
	return buildServer(pol, ttl)
}

// NewServerBandwidth returns an admission controller that accounts the
// paper's traffic specifications literally: a request for rate r is
// admitted while the sum of granted rates stays within capacity, and a
// grant reserves exactly the requested rate. This is the natural mode for
// heterogeneous demands (cf. utility mixtures with per-class Demand).
func NewServerBandwidth(capacity float64, ttl time.Duration) (*Server, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("resv: capacity must be positive and finite, got %g", capacity)
	}
	pol, err := policy.NewBandwidth(capacity)
	if err != nil {
		return nil, err
	}
	return buildServer(pol, ttl)
}

// NewServerPolicy returns an admission controller running the given
// admission policy — the policy owns the admit/release counters, the
// server owns everything else (soft state, TTL wheels, retransmit dedup,
// transports, metrics). Policies implementing policy.Instrumented have
// their gauges registered as resv_policy_<name>; policies implementing
// policy.ClockUser receive the server's monotonic clock on every decision.
func NewServerPolicy(pol policy.Policy, ttl time.Duration) (*Server, error) {
	if pol == nil {
		return nil, fmt.Errorf("resv: policy must be non-nil")
	}
	if !(pol.Capacity() > 0) || math.IsInf(pol.Capacity(), 0) {
		return nil, fmt.Errorf("resv: policy %q has no positive finite capacity", pol.Name())
	}
	if pol.Mode() == policy.ModeCount && pol.Bound() < 1 {
		return nil, fmt.Errorf("resv: counting-mode policy %q admits no flows (bound %d)", pol.Name(), pol.Bound())
	}
	return buildServer(pol, ttl)
}

func buildServer(pol policy.Policy, ttl time.Duration) (*Server, error) {
	if ttl < 0 {
		return nil, fmt.Errorf("resv: TTL must be nonnegative, got %v", ttl)
	}
	s := &Server{
		capacity: pol.Capacity(),
		kmax:     pol.Bound(),
		ttl:      ttl,
		pol:      pol,
		epoch:    time.Now(),
		stop:     make(chan struct{}),
		reg:      obs.New(),
	}
	nshards := shardCountFor(runtime.GOMAXPROCS(0))
	s.shards = make([]shard, nshards)
	s.shardShift = uint(64 - bits.TrailingZeros(uint(nshards)))
	for i := range s.shards {
		s.shards[i].Init(pol, ttl, s.epoch)
	}
	s.metrics = newServerMetrics(s.reg)
	s.reg.GaugeFunc("resv_active_flows", "live reservations", func() float64 {
		return float64(s.pol.Active())
	})
	s.reg.GaugeFunc("resv_allocated", "granted rate sum (bandwidth mode) or active count", s.Allocated)
	s.reg.GaugeFunc("resv_capacity", "link capacity C", func() float64 { return s.capacity })
	s.reg.GaugeFunc("resv_kmax", "admission threshold kmax(C)", func() float64 { return float64(s.kmax) })
	s.reg.GaugeFunc("resv_shards", "soft-state lock stripes", func() float64 { return float64(len(s.shards)) })
	if inst, ok := pol.(policy.Instrumented); ok {
		for _, g := range inst.Gauges() {
			s.reg.GaugeFunc("resv_policy_"+g.Name, g.Help, g.Value)
		}
	}
	if ttl > 0 {
		go s.expireLoop()
	}
	return s, nil
}

// Allocated returns the sum of granted rates (bandwidth mode) or the
// active reservation count (flow-count mode). Lock-free: safe to poll at
// any rate, concurrently with reserves.
func (s *Server) Allocated() float64 {
	return s.pol.Allocated()
}

// Active returns the current number of reservations. Lock-free.
func (s *Server) Active() int {
	return int(s.pol.Active())
}

// Policy returns the server's admission policy.
func (s *Server) Policy() policy.Policy { return s.pol }

// Capacity returns the link capacity.
func (s *Server) Capacity() float64 { return s.capacity }

// KMax returns the admission threshold.
func (s *Server) KMax() int { return s.kmax }

// TTL returns the soft-state lifetime (0 = no expiry).
func (s *Server) TTL() time.Duration { return s.ttl }

// Shards returns the lock-stripe width of the soft-state tables — the
// runtime-chosen count (shardCountFor of GOMAXPROCS at construction), the
// same value the resv_shards gauge reports.
func (s *Server) Shards() int { return len(s.shards) }

// Metrics returns the server's instrument set. Counters may be read at
// any time (atomic loads); they are updated with per-batch granularity.
func (s *Server) Metrics() *ServerMetrics { return s.metrics }

// Registry returns the server's metrics registry, for snapshotting or
// mounting at /metrics (obs.DebugMux).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops the soft-state expiry goroutine (if any). It does not close
// client connections or the listener.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// expireLoop drives every shard's timing wheel at the wheel resolution.
// Per tick it does work proportional to the flows actually expiring, plus
// one O(1) bucket visit per shard — never a scan of all flows.
func (s *Server) expireLoop() {
	tick := time.NewTicker(WheelRes(s.ttl))
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.expire(s.now())
		}
	}
}

// expire is one expiry step at server time now: every shard drops its due
// flows. Datagram peers left holding no flows are reaped afterwards, with
// no shard lock held — reaping takes udpMu before the peer's own lock, the
// reverse of the shard → peer order.
func (s *Server) expire(now int64) {
	for i := range s.shards {
		s.shards[i].Advance(now, s.expired)
	}
	if len(s.expPeers) == 0 {
		return
	}
	s.udpMu.Lock()
	for i, c := range s.expPeers {
		s.reapUDPPeerLocked(c)
		s.expPeers[i] = nil
	}
	s.udpMu.Unlock()
	s.expPeers = s.expPeers[:0]
}

// expired accounts one flow the expiry step dropped, and lists its
// datagram peer for reaping when it was the peer's last.
func (s *Server) expired(id uint64, c *conn, last bool) {
	s.metrics.Expiries.Inc()
	if last && c.datagram {
		s.expPeers = append(s.expPeers, c)
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceExpire, FlowID: id, Active: s.pol.Active()})
	}
	if s.Logf != nil {
		s.logf("resv: expired flow %d (active %d)", id, s.pol.Active())
	}
}

// Serve accepts connections on ln until ln is closed. It always returns a
// non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.HandleConn(nc)
	}
}

// HandleConn serves a single already-established connection (e.g. one end
// of a net.Pipe) through ServeConn. It returns when the connection fails
// or closes, releasing every reservation the connection holds.
func (s *Server) HandleConn(nc net.Conn) {
	c := &conn{nc: nc}
	defer s.release(c)
	s.metrics.Connections.Inc()
	defer s.metrics.Connections.Dec()
	if err := ServeConn(nc, &streamConn{s: s, c: c}); err != nil {
		s.logf("resv: connection %v closed: %v", nc.RemoteAddr(), err)
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// streamConn is a stream connection's Handler: the server's dispatch on
// the connection's flows, with outcomes tallied in plain (non-atomic)
// fields and folded into the shared instruments once per read.
type streamConn struct {
	s  *Server
	c  *conn
	bs batchStats
}

func (h *streamConn) Serve(f Frame, _ time.Time) Frame { return h.s.dispatch(h.c, f, &h.bs) }

func (h *streamConn) ServeBatch(ops []Frame, _ time.Time, out []Frame) []Frame {
	return append(out, h.s.dispatchBatch(h.c, ops, &h.bs))
}

func (h *streamConn) BadBatch() { h.bs.errs++ }

func (h *streamConn) Served(frames int, elapsed time.Duration) {
	h.s.metrics.flushBatch(&h.bs, frames, elapsed)
}

// dispatch serves one frame, tallying its outcome into bs. Counting lives
// here (not in the caller) because only the reserve path can tell a fresh
// grant from a retransmit answered out of the live entry — the two carry
// identical reply frames but must land in different counters.
func (s *Server) dispatch(c *conn, f Frame, bs *batchStats) Frame {
	var reply Frame
	var dup bool
	switch f.Type {
	case MsgRequest:
		reply, dup = s.reserve(c, f)
	case MsgTeardown:
		reply = s.teardown(c, f)
	case MsgRefresh:
		reply = s.refresh(c, f)
	case MsgStats:
		var err error
		reply, err = StatsReplyFrame(s.kmax, s.pol.Active())
		if err != nil { // a policy bound beyond 2^53 flows; unreachable for the built-ins
			reply = Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}
		}
	default:
		reply = Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}
	}
	bs.count(f, reply)
	if dup {
		// A re-sent grant is not a second admission: move it from the
		// grant tally to the dup tally so resv_grants_total keeps counting
		// admissions exactly.
		bs.grants--
		bs.dups++
	}
	return reply
}

// dispatchBatch serves one completed MsgReserveBatch body: runs of
// consecutive requests with identical rate and class are admitted through
// one vectored policy claim (policy.AdmitBatch — a single CAS for the
// built-in count/bandwidth/tiered policies), teardown ops go through the
// ordinary teardown path in order, and the whole body is answered with a
// single bitmap reply. Ops are processed in body order, so a batch is
// semantically identical to its ops sent one frame at a time — only the
// admission arithmetic and the reply framing are amortized.
func (s *Server) dispatchBatch(c *conn, ops []Frame, bs *batchStats) Frame {
	var verdict BatchVerdict
	share := 0.0
	for i := 0; i < len(ops); {
		f := ops[i]
		if f.Type == MsgTeardown {
			reply := s.teardown(c, f)
			bs.count(f, reply)
			if reply.Type == MsgTeardownOK {
				verdict |= 1 << uint(i)
			}
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && ops[j].Type == MsgRequest && ops[j].Value == f.Value && ops[j].Class == f.Class {
			j++
		}
		if sh := s.reserveRun(c, ops[i:j], i, &verdict, bs); sh != 0 {
			share = sh
		}
		i = j
	}
	return Frame{Type: MsgReserveBatchReply, FlowID: uint64(verdict), Value: share}
}

// badRate reports a requested rate no reserve may carry: negative, NaN or
// infinite, or — on a server with no flow bound, which accounts rates —
// not positive.
func (s *Server) badRate(v float64) bool {
	return !(v >= 0) || math.IsInf(v, 0) || (s.kmax == 0 && !(v > 0))
}

// reserveRun admits one run of identical batched requests (same rate and
// class) through AdmitRun, setting each installed op's bit in verdict. A
// granted op whose flow ID is already installed returns its claim and
// keeps its bit clear (batch framing is stream-only, so there is no
// datagram-retransmit re-grant case — a duplicate in a batch is simply an
// error outcome). It returns the count-mode grant share when anything was
// installed, 0 otherwise.
func (s *Server) reserveRun(c *conn, run []Frame, base int, verdict *BatchVerdict, bs *batchStats) float64 {
	n := len(run)
	bs.reserves += uint64(n)
	if s.badRate(run[0].Value) {
		bs.errs += uint64(n)
		if s.Trace != nil {
			for _, f := range run {
				s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest), Active: s.pol.Active()})
			}
		}
		return 0
	}
	var granted, held BatchVerdict
	dec := AdmitRun(s.shardFor, Now, run, ^uint64(0), &c.flows, c, base, &granted, &held)
	*verdict |= granted
	installed := granted.Count()
	dups := held.Count()
	bs.grants += uint64(installed)
	bs.errs += uint64(dups)
	bs.denials += uint64(n - installed - dups)
	if s.Trace != nil {
		for i, f := range run {
			switch bit := BatchVerdict(1) << uint(base+i); {
			case granted&bit != 0:
				s.Trace(TraceEvent{Kind: TraceGrant, FlowID: f.FlowID, Value: dec.Share, Active: s.pol.Active()})
			case held&bit != 0:
				s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeDuplicateFlow), Active: s.pol.Active()})
			default:
				s.Trace(TraceEvent{Kind: TraceDeny, FlowID: f.FlowID, Value: dec.Load, Active: s.pol.Active()})
			}
		}
	}
	if installed == 0 || s.kmax == 0 {
		return 0
	}
	return dec.Share
}

// reserve runs admission control for one request. dup reports that the
// reply is a re-sent grant for an already-installed flow (datagram
// retransmit), not a fresh admission.
//
// The decision itself belongs to the policy: the built-ins claim a slot
// with a CAS bounded by kmax (or capacity, in bandwidth mode), so the
// winners of a race at the boundary are exactly the first bound-n claims
// and a full link is denied from an atomic alone — no shard lock. The
// shard's job is the soft state around the decision: install the admitted
// flow, roll the claim back on a duplicate; the server's, to answer
// retransmits of live admissions from the entry rather than re-admitting.
func (s *Server) reserve(c *conn, f Frame) (reply Frame, dup bool) {
	if s.badRate(f.Value) {
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest), Active: s.pol.Active()})
		}
		return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}, false
	}
	sh := s.shardFor(f.FlowID)
	dec, out, rate := sh.Admit(Now, f.FlowID, f.Value, f.Class, &c.flows, c)
	switch out {
	case Denied:
		// A denial must not reject a datagram retransmit of a live
		// admission — possibly the very admission that filled the link
		// (grant lost, client re-sent). Only the deny path pays the shard
		// lookup; fresh admissions stay lock-free in the policy.
		if c.datagram {
			if rate, ok := sh.Owned(f.FlowID, &c.flows); ok {
				return s.duplicate(c, f, HeldOwn, rate)
			}
		}
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceDeny, FlowID: f.FlowID, Value: dec.Load, Active: s.pol.Active()})
		}
		if s.Logf != nil {
			s.logf("resv: deny flow %d (%s: load %g)", f.FlowID, s.pol.Name(), dec.Load)
		}
		return Frame{Type: MsgDeny, FlowID: f.FlowID, Value: dec.Load}, false
	case HeldOwn, HeldOther:
		// A retransmit is answered with what the original admission
		// granted (its stored rate, or the worst-case share), which need
		// not equal this request's.
		return s.duplicate(c, f, out, rate)
	}
	// In count mode the grant carries the guaranteed worst-case share
	// C/kmax — the instantaneous share C/min(k, kmax) would be stale the
	// moment another flow is admitted — and in bandwidth mode exactly the
	// requested rate; either way dec.Share is the policy's word.
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceGrant, FlowID: f.FlowID, Value: dec.Share, Active: s.pol.Active()})
	}
	if s.Logf != nil {
		s.logf("resv: grant flow %d (share %g, allocated %g/%g)", f.FlowID, dec.Share, s.pol.Allocated(), s.capacity)
	}
	return Frame{Type: MsgGrant, FlowID: f.FlowID, Value: dec.Share}, false
}

// duplicate resolves a reserve that found its flow ID already installed,
// after its claim went back to the policy; rate is what the live flow
// claimed. On a datagram connection whose own live flow it is, the reserve
// is a client retransmit whose grant was lost in flight: re-send the grant
// — the reply comes from the live flow of the original admission, so the
// retransmit can never double-admit. Everything else is a genuine
// duplicate-flow error.
func (s *Server) duplicate(c *conn, f Frame, out Outcome, rate float64) (Frame, bool) {
	if c.datagram && out == HeldOwn {
		value := s.pol.Share(rate)
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceGrant, FlowID: f.FlowID, Value: value, Active: s.pol.Active()})
		}
		if s.Logf != nil {
			s.logf("resv: re-grant flow %d (retransmitted reserve)", f.FlowID)
		}
		return Frame{Type: MsgGrant, FlowID: f.FlowID, Value: value}, true
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeDuplicateFlow), Active: s.pol.Active()})
	}
	return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeDuplicateFlow)}, false
}

func (s *Server) teardown(c *conn, f Frame) Frame {
	if !s.shardFor(f.FlowID).Release(Now, f.FlowID, &c.flows) {
		return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeUnknownFlow)}
	}
	active := s.pol.Active()
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceTeardown, FlowID: f.FlowID, Active: active})
	}
	if s.Logf != nil {
		s.logf("resv: teardown flow %d (active %d)", f.FlowID, active)
	}
	return Frame{Type: MsgTeardownOK, FlowID: f.FlowID, Value: float64(active)}
}

// refresh renews a reservation's soft-state deadline, an O(1) update: the
// wheel re-files the flow when its old bucket comes due.
func (s *Server) refresh(c *conn, f Frame) Frame {
	if !s.shardFor(f.FlowID).Refresh(Now, f.FlowID, &c.flows) {
		return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeUnknownFlow)}
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceRefresh, FlowID: f.FlowID, Value: s.ttl.Seconds(), Active: s.pol.Active()})
	}
	return Frame{Type: MsgRefreshOK, FlowID: f.FlowID, Value: s.ttl.Seconds()}
}

// release frees every reservation held by a departing connection.
func (s *Server) release(c *conn) {
	_ = c.nc.Close()
	n := c.flows.Drain(Now, s.holdShard, func(id uint64, _ *conn) {
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceRelease, FlowID: id, Active: s.pol.Active()})
		}
	})
	if n > 0 {
		s.metrics.Releases.Add(uint64(n))
		s.logf("resv: released %d reservations from %v", n, c.nc.RemoteAddr())
	}
}

// holdShard is the shard a flow lives in.
func (s *Server) holdShard(h *Hold[*conn]) *shard { return s.shardFor(h.slot.key) }
