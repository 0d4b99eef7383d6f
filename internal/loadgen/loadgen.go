// Package loadgen is a concurrent load harness for the resv admission
// plane: it drives a resv.Server with the flow arrivals and holding times
// of a workload scenario (internal/workload; Stationary compiles the
// harness's classic stationary Poisson dynamics into one), exercises the
// full protocol surface — reserve, teardown, refresh/keep-alive under TTL,
// retry backoff, connection drops, stalled clients — and measures
// blocking, occupancy, per-flow utility and request latency, over the
// whole measurement window and over each phase alike. CrossCheck then
// compares the measurements against the analytical model's P(k > kmax)
// and R(C): a live, end-to-end oracle for the admission server.
//
// Flow dynamics run in deterministic virtual time (a discrete-event clock
// shared with internal/sim), while every reservation decision is a real
// protocol round trip against the server under test, over net.Pipe for an
// in-process target or any net.Conn transport for a remote one. Flows
// denied a reservation stay in the offered population for their holding
// time and re-request as capacity frees (the paper's reservation-capable
// network still carries them best-effort), so under Poisson arrivals the
// offered population is an unconstrained M/G/∞ process with Poisson
// occupancy — exactly the load distribution the analytical model
// postulates.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"beqos/internal/obs"
	"beqos/internal/resv"
	"beqos/internal/rng"
	"beqos/internal/sim"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// rpcTimeout bounds any single protocol round trip.
const rpcTimeout = 10 * time.Second

// DefaultUDPTimeout is the datagram retransmit flight timeout a zero
// Config.UDPTimeout stands for: loopback-fast, so injected loss costs
// milliseconds, not the client's 250ms wide-area default.
const DefaultUDPTimeout = 25 * time.Millisecond

// retryJitterStream is the rng.Substream index reserved for retry-backoff
// jitter, disjoint from the flow-dynamics stream (the base seed itself).
const retryJitterStream = 0x6a09e667

// batches and phaseSlices are the numbers of equal time slices that cut
// the measurement window and each phase for batch-means standard errors.
// Batch means absorb the serial correlation of occupancy samples
// (correlation time ≈ one holding time) that a naive binomial sigma would
// ignore; a phase is shorter than the run, so it gets fewer slices.
const (
	batches     = 16
	phaseSlices = 8
)

// Config describes one load-harness run.
type Config struct {
	// Server is an in-process target, reached over net.Pipe. When nil,
	// Addr names a remote server instead.
	Server *resv.Server
	Addr   string

	// Capacity and Util describe the link under test; they must match the
	// server's configuration for the cross-validation to be meaningful.
	Capacity float64
	Util     utility.Function

	// Conns is the number of client connections; flows are assigned
	// round-robin across them (default 4).
	Conns int

	// Workload drives the run: arrivals, holding times, prefill, phases,
	// the warmup and the horizon, and per-flow wire classes all come from
	// the scenario's deterministic stream, seeded from Seed1/Seed2 (see
	// Stationary for the classic stationary dynamics). A scenario without
	// a class mixture sends every request in class 0. Results carry
	// per-phase breakdowns (Result.Phases).
	Workload *workload.Scenario
	// WorkloadRecord, when non-nil, observes every consumed workload
	// record in stream order — the golden-determinism trace hook.
	WorkloadRecord func(workload.Flow)

	// Seed1, Seed2 seed the deterministic random source. Identical
	// configurations produce identical measurements.
	Seed1, Seed2 uint64

	// DropEvery > 0 injects a fault at every n-th reserved-flow departure:
	// the departing flow's connection is closed mid-flight instead of
	// sending a teardown, the server's connection-scoped release is awaited,
	// and the surviving flows re-establish their reservations over a fresh
	// connection.
	DropEvery int

	// RetryAttempts > 1 drives each arrival through ReserveWithRetry with
	// that many attempts (immediate, zero-backoff retries — the slot state
	// cannot change between synchronous attempts, so this exercises the
	// retry path without perturbing the measurements). The retry policy's
	// jitter RNG is seeded from the run seed, so retrying runs stay
	// deterministic.
	RetryAttempts int

	// PolicyDenies declares that the server runs an admission policy that
	// may deny below the critical threshold kmax — token-bucket shedding,
	// class tiers, measurement-based gating — so a denial with free
	// capacity is expected behavior, not an anomaly. Grants beyond kmax
	// and wrong grant shares are still counted as anomalies.
	PolicyDenies bool

	// Transport selects how the harness reaches the server: "classic" (one
	// stream connection per endpoint, the default) or "udp" (datagram mode
	// with client-side retransmission).
	Transport string

	// UDPLossEvery ≥ 2 drops every n-th outgoing and every n-th incoming
	// datagram across the whole endpoint pool (udp transport only):
	// deterministic packet loss in both directions that forces the client
	// retransmit path and the server dedup path while the measurements stay
	// exact — a retransmitted reserve never admits twice. 1 would drop
	// every retransmission too, so it is rejected.
	UDPLossEvery int
	// UDPTimeout is the datagram retransmit flight timeout (0 =
	// DefaultUDPTimeout; negative is rejected).
	UDPTimeout time.Duration

	// Batch ≥ 2 coalesces protocol ops into multi-reserve bodies of up to
	// that many ops wherever the dynamics offer more than one op at a single
	// virtual instant: the pre-fill, burst arrivals, a departure's teardown
	// with the promotion reserves it frees, post-drop re-establishment, and
	// the final cleanup. The server processes a body in op order, so every
	// batched run keeps the exact sequential semantics — same grants, same
	// denials, same statistics — while paying one round trip per body. A
	// lone op, including the last one of a group that fills whole bodies,
	// travels as the classic single frame. Batch framing is stream-only and
	// the retry path is single-frame, so Batch is incompatible with
	// Transport "udp" and with RetryAttempts > 1. 0 or 1 means single-frame
	// operation: every op is a lone op.
	Batch int
}

// Validate returns the error Run would return for cfg's configuration,
// without running anything, so a caller can check cfg before it
// announces a run.
func (cfg *Config) Validate() error {
	_, err := cfg.withDefaults()
	return err
}

func (cfg *Config) withDefaults() (Config, error) {
	c := *cfg
	if c.Server == nil && c.Addr == "" {
		return c, fmt.Errorf("loadgen: need an in-process Server or a remote Addr")
	}
	if c.Server != nil && c.Addr != "" {
		return c, fmt.Errorf("loadgen: Server and Addr are mutually exclusive")
	}
	if !(c.Capacity > 0) {
		return c, fmt.Errorf("loadgen: capacity must be positive, got %g", c.Capacity)
	}
	if c.Util == nil {
		return c, fmt.Errorf("loadgen: utility must be non-nil")
	}
	if c.Workload == nil {
		return c, fmt.Errorf("loadgen: need a Workload scenario")
	}
	if len(c.Workload.Classes) > 0 {
		if c.RetryAttempts > 1 {
			return c, fmt.Errorf("loadgen: a class-mixture workload and RetryAttempts are mutually exclusive (the retry path is class-blind)")
		}
		for _, cl := range c.Workload.Classes {
			if cl.Tier > resv.ClassMask {
				return c, fmt.Errorf("loadgen: workload class %q tier %d does not fit the wire's class space (max %d)", cl.Name, cl.Tier, resv.ClassMask)
			}
		}
	}
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Conns < 1 {
		return c, fmt.Errorf("loadgen: need at least one connection, got %d", c.Conns)
	}
	if c.DropEvery < 0 || c.RetryAttempts < 0 {
		return c, fmt.Errorf("loadgen: DropEvery and RetryAttempts must be nonnegative")
	}
	switch c.Transport {
	case "":
		c.Transport = "classic"
	case "classic":
	case "udp":
		if c.DropEvery > 0 {
			return c, fmt.Errorf("loadgen: DropEvery needs a connection to drop; the udp transport has none (its fault model is UDPLossEvery)")
		}
	default:
		return c, fmt.Errorf("loadgen: unknown transport %q (want classic or udp)", c.Transport)
	}
	if c.UDPLossEvery != 0 {
		if c.Transport != "udp" {
			return c, fmt.Errorf("loadgen: UDPLossEvery applies only to the udp transport, not %q", c.Transport)
		}
		if c.UDPLossEvery < 2 {
			return c, fmt.Errorf("loadgen: UDPLossEvery must be ≥ 2 (1 would drop every retransmission too), got %d", c.UDPLossEvery)
		}
	}
	if c.UDPTimeout < 0 {
		return c, fmt.Errorf("loadgen: UDPTimeout must be nonnegative, got %v", c.UDPTimeout)
	}
	if c.UDPTimeout == 0 {
		c.UDPTimeout = DefaultUDPTimeout
	}
	if c.Batch < 0 || c.Batch > resv.MaxBatch {
		return c, fmt.Errorf("loadgen: Batch must be in [0, %d], got %d", resv.MaxBatch, c.Batch)
	}
	if c.Batch >= 2 {
		if c.Transport == "udp" {
			return c, fmt.Errorf("loadgen: Batch needs a stream transport; batch framing does not exist on udp")
		}
		if c.RetryAttempts > 1 {
			return c, fmt.Errorf("loadgen: Batch and RetryAttempts are mutually exclusive (the retry path is single-frame)")
		}
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	return c, nil
}

// Result reports one run's measurements. All statistics are deterministic
// for a fixed seed; only Latency and Elapsed depend on wall-clock behavior.
type Result struct {
	// KMax is the server-reported admission threshold.
	KMax int
	// Flows counts arrivals inside the measurement window (each issues
	// exactly one first attempt); FirstDenied counts their denials.
	// DenyRate = FirstDenied/Flows estimates the probability an arriving
	// flow finds the link full, P(k ≥ kmax) under Poisson load.
	Flows       int
	FirstDenied int
	DenyRate    float64
	// Attempts and Denied count every reservation request over the whole
	// run, including warmup, re-requests when capacity frees, retries, and
	// post-drop re-establishment.
	Attempts  int
	Denied    int
	Grants    int
	Teardowns int
	Retries   int
	// Drops, Reconnects and Reissued count injected connection faults and
	// the reservations re-established afterwards.
	Drops      int
	Reconnects int
	Reissued   int
	// Anomalies counts protocol responses that contradict the harness's
	// book-keeping: a denial with free capacity, a grant beyond kmax, or a
	// grant share that is not C/kmax. Zero on a correct server.
	Anomalies int

	// OverloadFraction is the time-weighted fraction of the measurement
	// window with offered population k > kmax — the direct estimator of the
	// paper's blocking probability P(k > kmax).
	OverloadFraction float64
	// MeanUtility is the measured per-flow utility: admitted flows score
	// π(C/n) at the instantaneous reserved count n, unreserved flows score
	// zero — the estimator of the paper's R(C).
	MeanUtility float64
	// MeasuredMeanLoad is the time-averaged offered population (→ k̄).
	MeasuredMeanLoad float64
	PeakLoad         int

	// Batch-means standard errors for the ratio statistics above.
	OverloadSigma float64
	DenySigma     float64
	UtilitySigma  float64
	LoadSigma     float64

	// OccupancyWeights is the time-weighted offered-population histogram
	// (index k = time spent with k flows present), ready for EmpiricalLoad.
	OccupancyWeights []float64

	// Latency is the wall-clock protocol round-trip-time distribution in
	// nanoseconds, snapshotted from the endpoint pool's shared
	// resv.ClientMetrics RTT histogram (the same instrument a remote
	// harness would scrape from /metrics).
	Latency obs.HistSnapshot

	// UDPRetransmits counts datagram re-sends after a reply timeout (udp
	// transport under UDPLossEvery; 0 otherwise).
	UDPRetransmits int

	// Batches counts the multi-op bodies sent and BatchedOps the protocol
	// ops they carried. A lone op travels as a single frame and is not
	// counted here, so both are 0 in single-frame mode.
	Batches    int
	BatchedOps int

	// Phases holds the per-phase measured breakdown (indexed like
	// Config.Workload.Phases).
	Phases []PhaseStats

	// FinalActive is the server's reservation count after cleanup (0 on a
	// correct server: every grant was matched by a teardown or release).
	FinalActive int
	Elapsed     time.Duration
}

// flow is one offered flow's harness-side state.
type flow struct {
	id       uint64
	conn     int
	tier     uint8 // wire admission class carried on every request
	phase    int   // scenario phase index
	present  bool
	reserved bool
}

// arrival is one workload record as the harness lands it: its holding
// time, its wire tier (its class's tier, 0 without a class mixture) and
// its phase.
type arrival struct {
	hold  float64
	tier  uint8
	phase int
}

// endpoint is one client connection and the reservations living on it.
type endpoint struct {
	client   *resv.Client
	reserved map[uint64]*flow
}

// lossyConn injects deterministic datagram loss in both directions: every
// n-th outgoing write (request loss — the server never hears it) and every
// n-th incoming read (reply loss — the server answered, forcing the dedup
// path) across the pool. The counters are shared by all endpoints, so
// identical configurations lose identical packets.
type lossyConn struct {
	net.Conn
	every    uint64
	sent     *atomic.Uint64
	received *atomic.Uint64
}

func (lc *lossyConn) Write(b []byte) (int, error) {
	if lc.sent.Add(1)%lc.every == 0 {
		return len(b), nil // lost on the wire
	}
	return lc.Conn.Write(b)
}

func (lc *lossyConn) Read(b []byte) (int, error) {
	for {
		n, err := lc.Conn.Read(b)
		if err != nil {
			return n, err
		}
		if lc.received.Add(1)%lc.every == 0 {
			continue // the reply is lost; the client's timer handles it
		}
		return n, nil
	}
}

type runner struct {
	cfg   Config
	eng   *sim.Engine
	eps   []*endpoint
	share float64 // expected grant share C/kmax

	// retryRand feeds the retry policies' jitter, on its own substream of
	// the run seed so retrying runs are as deterministic as plain ones.
	retryRand func() float64

	// cm is the endpoint pool's shared instrument set; every protocol
	// round trip lands here, and finish() derives the Result's attempt,
	// outcome, retry and latency statistics from it instead of bespoke
	// per-call-site tallies.
	cm *resv.ClientMetrics

	// udpLn is the in-process datagram listener (udp transport against an
	// in-process Server); lossSent/lossRecv are the pool-wide loss counters.
	udpLn    net.PacketConn
	lossSent atomic.Uint64
	lossRecv atomic.Uint64

	kmax     int
	nextID   uint64
	rrNext   int
	pop      int
	nres     int
	waiting  []*flow
	dropTick int

	// piTimes[n] = n·π(C/n) for n in [0, kmax], the total-utility table.
	piTimes []float64

	// run measures the window [warmup, horizon) and phases[i] the part of
	// phase i inside it, each integrated up to the instant last.
	last   float64
	run    accum
	phases []accum
	peak   int

	// The scenario stream and its one-record lookahead (so simultaneous
	// records group into one virtual instant).
	wl     *workload.Stream
	wlNext workload.Flow
	wlOK   bool

	res Result
	err error // first RPC/transport failure; aborts the run
}

// Run executes one load-harness run and returns its measurements.
func Run(cfg Config) (*Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	scn := c.Workload
	w := scn.Warmup
	d := scn.Duration() - w
	r := &runner{cfg: c, eng: sim.NewEngine(), run: newAccum(w, d, batches, w, w+d)}
	r.run.occ = &r.res.OccupancyWeights
	for i := range scn.Phases {
		ph := &scn.Phases[i]
		r.phases = append(r.phases, newAccum(ph.Start, ph.Duration, phaseSlices, w, w+d))
	}
	r.cm = resv.NewClientMetrics(obs.New())
	js1, js2 := rng.Substream(c.Seed1, c.Seed2, retryJitterStream)
	r.retryRand = rng.New(js1, js2).Float64
	defer func() {
		for _, ep := range r.eps {
			_ = ep.client.Close()
		}
		if r.udpLn != nil {
			_ = r.udpLn.Close()
		}
	}()
	for i := 0; i < c.Conns; i++ {
		ep, err := r.connect()
		if err != nil {
			return nil, err
		}
		r.eps = append(r.eps, ep)
	}
	kmax, active, err := r.stats()
	if err != nil {
		return nil, fmt.Errorf("loadgen: initial stats: %w", err)
	}
	if kmax < 1 {
		return nil, fmt.Errorf("loadgen: server reports kmax = %d", kmax)
	}
	if active != 0 {
		return nil, fmt.Errorf("loadgen: server already holds %d reservations; the harness needs exclusive use", active)
	}
	r.kmax = kmax
	r.res.KMax = kmax
	r.share = c.Capacity / float64(kmax)
	r.piTimes = make([]float64, kmax+1)
	for n := 1; n <= kmax; n++ {
		r.piTimes[n] = float64(n) * c.Util.Eval(c.Capacity/float64(n))
	}

	// The stream owns all randomness. The t=0 group (prefill plus any
	// zero-time arrivals) lands before the event loop starts.
	r.wl = scn.Stream(c.Seed1, c.Seed2)
	r.pull()
	r.arriveGroup(r.takeGroup(0))
	if r.err != nil {
		return nil, r.err
	}
	r.pump()
	r.eng.Run(r.run.hi)
	if r.err != nil {
		return nil, r.err
	}
	r.advance(r.run.hi)

	// Clean teardown of everything still reserved, in flow order and in
	// chunks of up to Batch, then confirm the server agrees the link is
	// empty.
	for ci, ep := range r.eps {
		held := make([]*flow, 0, len(ep.reserved))
		for _, f := range ep.reserved {
			held = append(held, f)
		}
		sort.Slice(held, func(i, j int) bool { return held[i].id < held[j].id })
		for lo := 0; lo < len(held) && r.err == nil; lo += r.cfg.Batch {
			r.send(ci, held[lo:min(lo+r.cfg.Batch, len(held))], nil)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if _, active, err := r.stats(); err == nil {
		r.res.FinalActive = active
	} else {
		return nil, fmt.Errorf("loadgen: final stats: %w", err)
	}

	r.finish()
	r.res.Elapsed = time.Since(start)
	return &r.res, nil
}

// dial opens one connection to the target in the configured transport:
// net.Pipe (stream transports) or a loopback datagram socket (udp) into an
// in-process server, or a network dial for a remote one.
func (r *runner) dial() (*resv.Client, error) {
	cfg := &r.cfg
	switch cfg.Transport {
	case "udp":
		addr := cfg.Addr
		if cfg.Server != nil {
			// The in-process datagram target still needs a real socket:
			// net.Pipe has stream semantics, and the datagram transport's
			// loss model only makes sense over packets. One loopback
			// listener serves the whole endpoint pool.
			if r.udpLn == nil {
				pc, err := net.ListenPacket("udp", "127.0.0.1:0")
				if err != nil {
					return nil, fmt.Errorf("loadgen: udp listener: %w", err)
				}
				srv := cfg.Server
				go func() { _ = srv.ServePacket(pc) }()
				r.udpLn = pc
			}
			addr = r.udpLn.LocalAddr().String()
		}
		nc, err := net.Dial("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("loadgen: dial udp %s: %w", addr, err)
		}
		conn := net.Conn(nc)
		if cfg.UDPLossEvery > 0 {
			conn = &lossyConn{Conn: nc, every: uint64(cfg.UDPLossEvery), sent: &r.lossSent, received: &r.lossRecv}
		}
		return resv.NewUDPClient(conn, resv.UDPConfig{Timeout: cfg.UDPTimeout}), nil
	default:
		return dialStream(cfg.Server, cfg.Addr)
	}
}

// dialStream opens one stream connection: net.Pipe into an in-process
// server, or a TCP dial. The soft-state probe always uses this transport.
func dialStream(server *resv.Server, addr string) (*resv.Client, error) {
	if server != nil {
		cEnd, sEnd := net.Pipe()
		go server.HandleConn(sEnd)
		return resv.NewClient(cEnd), nil
	}
	ctx, cancel := rpcCtx()
	defer cancel()
	return resv.Dial(ctx, "tcp", addr)
}

// connect opens one harness endpoint wired into the shared instrument set.
func (r *runner) connect() (*endpoint, error) {
	c, err := r.dial()
	if err != nil {
		return nil, err
	}
	c.SetMetrics(r.cm)
	return &endpoint{client: c, reserved: make(map[uint64]*flow)}, nil
}

func rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), rpcTimeout)
}

// stats fetches (kmax, active) over any live connection.
func (r *runner) stats() (int, int, error) {
	ctx, cancel := rpcCtx()
	defer cancel()
	return r.eps[0].client.Stats(ctx)
}

// advance integrates the piecewise-constant state up to virtual time to,
// into the run and into every phase.
func (r *runner) advance(to float64) {
	from := r.last
	r.last = to
	r.run.integrate(r, from, to)
	for i := range r.phases {
		r.phases[i].integrate(r, from, to)
	}
}

// first tallies a first attempt at the current instant, or its denial,
// when the instant is measured: in the run and in the phase the stream
// drew the arrival in, even at the instant that phase ends.
func (r *runner) first(phase int, denied bool) {
	now := r.eng.Now()
	if now < r.run.lo || now >= r.run.hi {
		return
	}
	r.run.first(now, denied)
	r.phases[phase].first(now, denied)
}

// arriveGroup lands the flow arrivals of one virtual instant. Their first
// attempts go out in chunks of up to Batch flows, one connection per chunk
// in round-robin order, so single-frame mode sends each flow on the next
// connection. The server grants a body's ops exactly as it would grant the
// same frames sent one at a time, and the stream drew the holding times
// before either, so a batched run reproduces the single-frame run's
// dynamics and statistics bit for bit.
func (r *runner) arriveGroup(g []arrival) {
	r.advance(r.eng.Now())
	for len(g) > 0 && r.err == nil {
		n := min(len(g), r.cfg.Batch)
		ci := r.rrNext
		r.rrNext = (r.rrNext + 1) % len(r.eps)
		flows := make([]*flow, n)
		for i, a := range g[:n] {
			r.nextID++
			flows[i] = &flow{id: r.nextID, conn: ci, tier: a.tier, phase: a.phase, present: true}
			r.pop++
			r.peak = max(r.peak, r.pop)
			r.first(a.phase, false)
		}
		granted := r.send(ci, nil, flows)
		if r.err != nil {
			return
		}
		for i, f := range flows {
			if !granted[i] {
				r.first(f.phase, true)
				r.waiting = append(r.waiting, f)
			}
			r.eng.Schedule(g[i].hold, func() { r.depart(f) })
		}
		g = g[n:]
	}
}

// send makes one exchange on connection ci — a teardown for each flow of
// tear, then a reservation attempt for each flow of flows — and books
// every answer: a torn-down flow leaves the harness's books, a granted
// one enters them. A grant beyond kmax, a grant share that is not C/kmax
// and (unless PolicyDenies) a denial with capacity free count as
// anomalies. It returns the grants of flows, nil when the run aborted.
func (r *runner) send(ci int, tear, flows []*flow) []bool {
	ep := r.eps[ci]
	ops := make([]resv.Frame, 0, len(tear)+len(flows))
	for _, f := range tear {
		ops = append(ops, resv.Frame{Type: resv.MsgTeardown, FlowID: f.id})
	}
	for _, f := range flows {
		ops = append(ops, resv.Frame{Type: resv.MsgRequest, Class: f.tier, FlowID: f.id, Value: 1})
	}
	v, share, err := r.exchange(ep.client, ops)
	if err != nil {
		r.err = fmt.Errorf("loadgen: %v flow %d (%d ops): %w", ops[0].Type, ops[0].FlowID, len(ops), err)
		return nil
	}
	for i, f := range tear {
		if !v.Granted(i) {
			r.err = fmt.Errorf("loadgen: server rejected teardown of reserved flow %d", f.id)
			return nil
		}
		f.reserved = false
		r.nres--
		delete(ep.reserved, f.id)
	}
	granted := make([]bool, len(flows))
	for i, f := range flows {
		granted[i] = v.Granted(len(tear) + i)
		switch {
		case granted[i]:
			if r.nres >= r.kmax {
				r.res.Anomalies++ // grant beyond the admission threshold
			}
			f.reserved = true
			r.nres++
			ep.reserved[f.id] = f
		case r.nres < r.kmax && !r.cfg.PolicyDenies:
			r.res.Anomalies++ // denial with free capacity
		}
	}
	if v>>len(tear) != 0 && math.Abs(share-r.share) > 1e-9 {
		r.res.Anomalies++ // a reply that grants must carry the worst-case C/kmax
	}
	return granted
}

// exchange puts ops on the wire and waits for the answer: a lone op as the
// classic single frame (a reserve through the retry path when
// RetryAttempts > 1), two or more as one multi-reserve body, which the
// server processes in op order. Bit i of the verdict reports op i granted
// or torn down; share is the grant share.
func (r *runner) exchange(c *resv.Client, ops []resv.Frame) (resv.BatchVerdict, float64, error) {
	ctx, cancel := rpcCtx()
	defer cancel()
	if len(ops) > 1 {
		r.res.Batches++
		r.res.BatchedOps += len(ops)
		return c.ReserveBatch(ctx, ops)
	}
	var ok bool
	var share float64
	var err error
	switch op := ops[0]; {
	case op.Type == resv.MsgTeardown:
		ok, err = true, c.Teardown(ctx, op.FlowID)
	case r.cfg.RetryAttempts > 1:
		ok, share, _, err = c.ReserveWithRetry(ctx, op.FlowID, 1, resv.RetryPolicy{
			MaxAttempts: r.cfg.RetryAttempts,
			Multiplier:  1,
			Rand:        r.retryRand,
		})
	default:
		ok, share, err = c.ReserveClass(ctx, op.FlowID, 1, op.Class)
	}
	if !ok {
		return 0, share, err
	}
	return 1, share, err
}

// depart handles one flow leaving the offered population.
func (r *runner) depart(f *flow) {
	if r.err != nil {
		return
	}
	r.advance(r.eng.Now())
	r.pop--
	f.present = false
	if !f.reserved {
		return // was waiting; lazily skipped at promotion
	}
	if r.cfg.DropEvery > 0 {
		r.dropTick++
		if r.dropTick%r.cfg.DropEvery == 0 {
			r.dropConn(f)
			r.promote()
			return
		}
	}
	r.teardownPromote(f)
}

// teardownPromote sends a departing flow's teardown with up to Batch−1 of
// the promotion reserves its slot frees. A waiting flow has no server-side
// state, so a promotion candidate is reassigned to the departing flow's
// connection to share its body; in-order body processing frees the slot
// before the first reserve claims it. Denied candidates return to the head
// of the waiting list and end the promotion round, exactly like a
// sequential promote; otherwise promote hands on whatever capacity the
// body could not carry. In single-frame mode the teardown goes alone.
func (r *runner) teardownPromote(f *flow) {
	limit := min(r.cfg.Batch-1, r.kmax-(r.nres-1))
	var cands []*flow
	for len(cands) < limit {
		c := r.nextWaiting()
		if c == nil {
			break
		}
		c.conn = f.conn
		cands = append(cands, c)
	}
	granted := r.send(f.conn, []*flow{f}, cands)
	if r.err != nil {
		return
	}
	var back []*flow
	for i, c := range cands {
		if !granted[i] {
			back = append(back, c)
		}
	}
	if len(back) > 0 {
		r.waiting = append(back, r.waiting...)
		return
	}
	r.promote()
}

// promote hands freed capacity to waiting flows, oldest first.
func (r *runner) promote() {
	for r.err == nil && r.nres < r.kmax {
		f := r.nextWaiting()
		if f == nil {
			return
		}
		if granted := r.send(f.conn, nil, []*flow{f}); r.err == nil && !granted[0] {
			// Unexpected denial (already counted as an anomaly): put the
			// flow back and stop promoting this round.
			r.waiting = append([]*flow{f}, r.waiting...)
			return
		}
	}
}

// nextWaiting pops the oldest waiting flow still present and unreserved,
// dropping the stale entries ahead of it; nil when none is left.
func (r *runner) nextWaiting() *flow {
	for len(r.waiting) > 0 {
		f := r.waiting[0]
		r.waiting = r.waiting[1:]
		if f.present && !f.reserved {
			return f
		}
	}
	return nil
}

// dropConn injects a connection fault: the departing flow's connection is
// closed with reservations live, the server's connection-scoped release is
// awaited, and surviving flows re-reserve over a replacement connection.
// All of it happens at one virtual instant, so the fault exercises the
// protocol without perturbing the time-weighted statistics.
func (r *runner) dropConn(departing *flow) {
	ci := departing.conn
	ep := r.eps[ci]
	affected := len(ep.reserved) // includes the departing flow
	survivors := make([]*flow, 0, affected)
	for _, f := range ep.reserved {
		f.reserved = false
		if f.present {
			survivors = append(survivors, f)
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].id < survivors[j].id })
	r.nres -= affected
	expect := r.nres
	_ = ep.client.Close()
	r.res.Drops++

	fresh, err := r.connect()
	if err != nil {
		r.err = fmt.Errorf("loadgen: reconnect after drop: %w", err)
		return
	}
	r.eps[ci] = fresh
	r.res.Reconnects++

	// Wait for the server to process the connection-scoped release before
	// re-reserving — otherwise the re-requests race the release and can be
	// spuriously denied.
	deadline := time.Now().Add(rpcTimeout)
	for {
		_, active, err := r.stats()
		if err != nil {
			r.err = fmt.Errorf("loadgen: stats after drop: %w", err)
			return
		}
		if active == expect {
			break
		}
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("loadgen: server holds %d reservations %v after drop, want %d", active, rpcTimeout, expect)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	for lo := 0; lo < len(survivors); lo += r.cfg.Batch {
		chunk := survivors[lo:min(lo+r.cfg.Batch, len(survivors))]
		granted := r.send(ci, nil, chunk)
		if r.err != nil {
			return
		}
		for i, f := range chunk {
			if !granted[i] {
				r.waiting = append(r.waiting, f) // anomaly already counted
				continue
			}
			r.res.Reissued++
		}
	}
}

// accum measures one window of a run — the measurement window, or one
// phase's part of it — cut into equal slices: slice s covers
// [start + s·step, start + (s+1)·step), and only the part inside [lo, hi)
// is measured. Per slice it integrates time, overloaded time (offered
// population above kmax), offered population and total utility, and
// tallies first attempts and their denials.
type accum struct {
	start, step float64
	lo, hi      float64

	time, overload, popInt, utilInt, firstAtt, firstDen []float64

	// occ, set on the run's accumulator alone, is the occupancy
	// histogram each measured segment's time is added to.
	occ *[]float64
}

// newAccum cuts [start, start+length) into n slices and measures the part
// of it inside [lo, hi).
func newAccum(start, length float64, n int, lo, hi float64) accum {
	return accum{
		start: start, step: length / float64(n),
		lo: math.Max(start, lo), hi: math.Min(start+length, hi),
		time:     make([]float64, n),
		overload: make([]float64, n),
		popInt:   make([]float64, n),
		utilInt:  make([]float64, n),
		firstAtt: make([]float64, n),
		firstDen: make([]float64, n),
	}
}

// slice maps the instant t to its slice, clamped into the window.
func (a *accum) slice(t float64) int {
	return max(0, min(int((t-a.start)/a.step), len(a.time)-1))
}

// integrate adds r's piecewise-constant state over [from, to), clipped to
// the measured part and split at slice boundaries.
func (a *accum) integrate(r *runner, from, to float64) {
	lo, hi := math.Max(from, a.lo), math.Min(to, a.hi)
	for lo < hi {
		s := a.slice(lo)
		end := math.Min(a.start+float64(s+1)*a.step, hi)
		if !(end > lo) {
			// Floating-point corner: a boundary rounded onto lo. Force
			// minimal progress so the walk terminates.
			end = math.Nextafter(lo, math.Inf(1))
			if end > hi {
				return
			}
		}
		dt := end - lo
		a.time[s] += dt
		a.popInt[s] += dt * float64(r.pop)
		if r.pop > r.kmax {
			a.overload[s] += dt
		}
		a.utilInt[s] += dt * r.piTimes[r.nres]
		if a.occ != nil {
			for len(*a.occ) <= r.pop {
				*a.occ = append(*a.occ, 0)
			}
			(*a.occ)[r.pop] += dt
		}
		lo = end
	}
}

// first tallies a first attempt at t, or its denial.
func (a *accum) first(t float64, denied bool) {
	s := a.slice(t)
	if denied {
		a.firstDen[s]++
	} else {
		a.firstAtt[s]++
	}
}

// fold sums the tallies and folds the slices into the ratio statistics,
// each with its batch-means standard error.
func (a *accum) fold() PhaseStats {
	var ps PhaseStats
	for s := range a.time {
		ps.Flows += int(a.firstAtt[s])
		ps.FirstDenied += int(a.firstDen[s])
	}
	ps.DenyRate, ps.DenySigma = ratio(a.firstDen, a.firstAtt)
	ps.OverloadFraction, ps.OverloadSigma = ratio(a.overload, a.time)
	ps.MeanLoad, ps.LoadSigma = ratio(a.popInt, a.time)
	ps.MeanUtility, ps.UtilitySigma = ratio(a.utilInt, a.popInt)
	return ps
}

// ratio folds per-batch numerators/denominators into an overall ratio and
// its batch-means standard error.
func ratio(num, den []float64) (v, sigma float64) {
	var sn, sd float64
	var vals []float64
	for b := range num {
		sn += num[b]
		sd += den[b]
		if den[b] > 0 {
			vals = append(vals, num[b]/den[b])
		}
	}
	if sd == 0 {
		return 0, 0
	}
	v = sn / sd
	n := len(vals)
	if n < 2 {
		return v, 0
	}
	var mean float64
	for _, x := range vals {
		mean += x
	}
	mean /= float64(n)
	var ss float64
	for _, x := range vals {
		ss += (x - mean) * (x - mean)
	}
	sigma = math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
	return v, sigma
}

// finish folds the run's and the phases' accumulators into the Result
// and reads the rest off the shared client instruments.
func (r *runner) finish() {
	r.res.Attempts = int(r.cm.Requests.Load())
	r.res.Denied = int(r.cm.Denials.Load())
	r.res.Grants = int(r.cm.Grants.Load())
	r.res.Teardowns = int(r.cm.Teardowns.Load())
	r.res.Retries = int(r.cm.Retries.Load())
	r.res.UDPRetransmits = int(r.cm.Retransmits.Load())
	r.res.Latency = r.cm.RTT.Snapshot()
	r.res.PeakLoad = r.peak
	run := r.run.fold()
	r.res.Flows, r.res.FirstDenied = run.Flows, run.FirstDenied
	r.res.DenyRate, r.res.DenySigma = run.DenyRate, run.DenySigma
	r.res.OverloadFraction, r.res.OverloadSigma = run.OverloadFraction, run.OverloadSigma
	r.res.MeasuredMeanLoad, r.res.LoadSigma = run.MeanLoad, run.LoadSigma
	r.res.MeanUtility, r.res.UtilitySigma = run.MeanUtility, run.UtilitySigma
	r.res.Phases = make([]PhaseStats, len(r.phases))
	for i := range r.phases {
		ph := &r.cfg.Workload.Phases[i]
		ps := r.phases[i].fold()
		ps.Name, ps.Start, ps.End = ph.Name, ph.Start, ph.Start+ph.Duration
		r.res.Phases[i] = ps
	}
}
