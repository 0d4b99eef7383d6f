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
//
// Time enters through the server's Lifecycle alone. Each read of a stream
// connection, each datagram, each expiry tick and each connection drop
// reads its clock once, and every soft-state and policy call under it
// takes that instant: a reserve's TTL is armed at its read's instant.
type Server struct {
	capacity float64
	kmax     int
	ttl      time.Duration
	lc       *Lifecycle // clock, expiry loop and stream connections

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
	// virtual connections (udp.go), and udpFree, reaped peers kept for
	// reuse. A peer's inflight count is also guarded by udpMu; a peer may
	// be reaped only when it owns no flows and no reader goroutine is
	// mid-dispatch on it.
	udpMu    sync.Mutex
	udpPeers map[string]*conn
	udpFree  []*conn
	// expPeers is the expiry loop's scratch: datagram peers whose last flow
	// it expired, to be reaped once the shard locks are released.
	expPeers []*conn

	// reg/metrics are the server's observability plane (DESIGN.md §9):
	// always on, atomics-only, flushed once per frame batch on the hot
	// path. Registry serves them at /metrics.
	reg     *obs.Registry
	metrics *ServerMetrics

	// Logf, if non-nil, receives one line per protocol event; defaults to
	// silent. Set before calling Serve.
	Logf func(format string, args ...interface{})
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

// conn tracks one client connection's reservations: a stream connection
// HandleConn serves, or a datagram peer, a virtual connection keyed by
// source address (datagram true), created on first datagram and reaped
// once it holds no flows and no dispatch is in flight.
type conn struct {
	// datagram marks a UDP virtual connection: its client retransmits
	// requests, so a duplicate reserve is answered from the live grant
	// instead of erroring (see reserve).
	datagram bool
	// key is a datagram peer's udpPeers key.
	key string
	// inflight counts reader goroutines mid-dispatch on this datagram
	// peer; guarded by Server.udpMu.
	inflight int
	// flows lists the connection's flows, one list per shard, so that a
	// dropped connection releases them.
	flows Owner[*conn]
}

// newConn makes a connection record with a flow list for each shard.
func (s *Server) newConn() *conn {
	c := &conn{}
	c.flows.Init(len(s.shards))
	return c
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

// NewServer returns an admission controller for a link of the given
// capacity whose clients run applications with the given utility function.
// Reservations persist until torn down or their connection drops.
func NewServer(capacity float64, util utility.Function) (*Server, error) {
	return NewServerTTL(capacity, util, 0)
}

// NewServerTTL is NewServer with RSVP-style soft state: reservations not
// refreshed within ttl are released. ttl = 0 disables expiry. Servers with
// a TTL run a background expiry goroutine, which Close stops.
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
// their gauges registered as resv_policy_<name>. Every decision is handed
// the server's clock at its read, datagram, expiry tick or connection
// drop, so the frames of one read all reach the policy at one instant.
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
		lc:       NewLifecycle(),
		reg:      obs.New(),
	}
	nshards := shardCountFor(runtime.GOMAXPROCS(0))
	s.shards = make([]shard, nshards)
	s.shardShift = uint(64 - bits.TrailingZeros(uint(nshards)))
	start := s.lc.Now()
	for i := range s.shards {
		s.shards[i].Init(i, pol, ttl, start)
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
		s.lc.Every(WheelRes(ttl), s.expire)
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

// Capacity returns the link capacity.
func (s *Server) Capacity() float64 { return s.capacity }

// KMax returns the admission threshold.
func (s *Server) KMax() int { return s.kmax }

// Shards returns the lock-stripe width of the soft-state tables — the
// runtime-chosen count (shardCountFor of GOMAXPROCS at construction), the
// same value the resv_shards gauge reports.
func (s *Server) Shards() int { return len(s.shards) }

// Metrics returns the server's instrument set. Counters may be read at
// any time (atomic loads); they are updated with per-batch granularity.
func (s *Server) Metrics() *ServerMetrics { return s.metrics }

// Registry returns the server's metrics registry, for snapshotting or
// mounting at /metrics (obshttp.DebugMux).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close ends the server: it stops the expiry loop (if any), closes every
// stream connection HandleConn is serving and every PacketConn
// ServePacket is serving, and returns once their flows are released, each
// counted in resv_releases_total. A connection or PacketConn handed over
// after Close is closed unserved. Close does not close the listener Serve
// accepts on: its owner closes it.
func (s *Server) Close() {
	s.lc.Close()
	s.releaseUDPPeers()
}

// expire is one expiry step at server time now, run once per wheel tick:
// every shard drops its due flows, work proportional to the flows expiring
// plus one bucket visit per shard, never a scan of all flows. Datagram
// peers left holding no flows are reaped afterwards, so udpMu is never
// taken under a shard's lock.
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
	if s.Logf != nil {
		s.logf("resv: expired flow %d (active %d)", id, s.pol.Active())
	}
}

// Serve accepts connections on ln and serves each through HandleConn until
// ln is closed. It always returns a non-nil error (net.ErrClosed after a
// clean shutdown).
func (s *Server) Serve(ln net.Listener) error { return s.lc.Accept(ln, s.HandleConn) }

// HandleConn serves a single already-established connection (e.g. one end
// of a net.Pipe) through ServeConn. It returns when the connection fails
// or closes, or the server closes, once it has released every reservation
// the connection held.
func (s *Server) HandleConn(nc net.Conn) {
	c := s.newConn()
	s.metrics.Connections.Inc()
	s.lc.Serve(nc, &streamConn{s: s, c: c}, func(err error) {
		if n := c.flows.Drain(s.lc.Now(), s.shard); n > 0 {
			s.metrics.Releases.Add(uint64(n))
			s.logf("resv: released %d reservations from %v", n, nc.RemoteAddr())
		}
		if err != nil {
			s.logf("resv: connection %v closed: %v", nc.RemoteAddr(), err)
		}
		s.metrics.Connections.Dec()
	})
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

func (h *streamConn) Serve(f Frame, now int64) Frame { return h.s.dispatch(h.c, f, now, &h.bs) }

func (h *streamConn) ServeBatch(ops []Frame, now int64) Frame {
	return h.s.dispatchBatch(h.c, ops, now, &h.bs)
}

func (h *streamConn) BadBatch() { h.bs.errs++ }

func (h *streamConn) Served(frames int, elapsed time.Duration) {
	h.s.metrics.flushBatch(&h.bs, frames, elapsed)
}

// dispatch serves one frame at instant now, tallying its outcome into bs.
// Counting lives here (not in the caller) because only the reserve path
// can tell a fresh grant from a retransmit answered out of the live entry
// — the two carry identical reply frames but must land in different
// counters.
func (s *Server) dispatch(c *conn, f Frame, now int64, bs *batchStats) Frame {
	var reply Frame
	var dup bool
	switch f.Type {
	case MsgRequest:
		reply, dup = s.reserve(c, f, now)
	case MsgTeardown, MsgRefresh:
		reply = s.shardFor(f.FlowID).Answer(now, f, ^uint64(0), &c.flows, c)
		if reply.Type == MsgTeardownOK && s.Logf != nil {
			s.logf("resv: teardown flow %d (active %d)", f.FlowID, int64(reply.Value))
		}
	case MsgStats:
		var err error
		reply, err = StatsReplyFrame(s.kmax, s.pol.Active())
		if err != nil { // a policy bound beyond 2^53 flows; unreachable for the built-ins
			reply = errorReply(f, ErrCodeBadRequest)
		}
	default:
		reply = errorReply(f, ErrCodeBadRequest)
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

// dispatchBatch serves one completed MsgReserveBatch body through
// AnswerBatch and tallies its ops into bs. A batch is semantically
// identical to its ops sent one frame at a time — only the admission
// arithmetic and the reply framing are amortized. Batch framing is
// stream-only, so a duplicate in a body is an error, never a re-grant.
func (s *Server) dispatchBatch(c *conn, ops []Frame, now int64, bs *batchStats) Frame {
	reply, errs := AnswerBatch(s.shardFor, now, ops, ^uint64(0), &c.flows, c)
	bs.countBody(ops, BatchVerdict(reply.FlowID), errs)
	return reply
}

// reserve answers one request through its shard's cell. Its bool reports
// that the reply is a re-sent grant for an already-installed flow
// (datagram retransmit), not a fresh admission.
//
// The decision itself belongs to the policy: the built-ins claim a slot
// with a CAS bounded by kmax (or capacity, in bandwidth mode), so the
// winners of a race at the boundary are exactly the first bound-n claims
// and a full link is denied from an atomic alone — no shard lock. The
// shard's job is the soft state around the decision: install the admitted
// flow, roll the claim back on a duplicate; the server's, to answer
// retransmits of live admissions from the entry rather than re-admitting.
func (s *Server) reserve(c *conn, f Frame, now int64) (Frame, bool) {
	sh := s.shardFor(f.FlowID)
	reply, out, rate := sh.Reserve(now, f, ^uint64(0), &c.flows, c)
	if c.datagram {
		// A datagram peer's reserve of a flow it holds is a retransmit whose
		// grant was lost in flight: re-send the grant from the live flow of
		// the original admission, so a retransmit can never double-admit.
		// It carries what that admission granted (its stored rate, or the
		// worst-case share), which need not equal this request's. A denial
		// must not hide a retransmit either — possibly of the very
		// admission that filled the link. Only the deny path pays the shard
		// lookup; fresh admissions stay lock-free in the policy.
		if out == Denied {
			if held, ok := sh.Owned(f.FlowID, &c.flows); ok {
				out, rate = HeldOwn, held
			}
		}
		if out == HeldOwn {
			if s.Logf != nil {
				s.logf("resv: re-grant flow %d (retransmitted reserve)", f.FlowID)
			}
			return Frame{Type: MsgGrant, FlowID: f.FlowID, Value: s.pol.Share(rate)}, true
		}
	}
	if s.Logf != nil {
		switch reply.Type {
		case MsgGrant:
			s.logf("resv: grant flow %d (share %g, allocated %g/%g)", f.FlowID, reply.Value, s.pol.Allocated(), s.capacity)
		case MsgDeny:
			s.logf("resv: deny flow %d (%s: load %g)", f.FlowID, s.pol.Name(), reply.Value)
		}
	}
	return reply, false
}

// shard returns shard i.
func (s *Server) shard(i int) *shard { return &s.shards[i] }
