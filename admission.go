package beqos

import (
	"context"
	"net"
	"net/http"
	"time"

	"beqos/internal/obs/obshttp"
	"beqos/internal/resv"
)

// AdmissionServer is a reservation signaling server for one link: clients
// request reservations, and admission control grants at most kmax(C) of
// them, exactly as the paper's reservation-capable architecture prescribes.
type AdmissionServer struct {
	s *resv.Server
}

// NewAdmissionServer returns a server for a link with the given capacity
// whose applications have the given utility function. Reservations persist
// until torn down or their connection drops.
func NewAdmissionServer(capacity float64, util Utility) (*AdmissionServer, error) {
	s, err := resv.NewServer(capacity, util.f)
	if err != nil {
		return nil, err
	}
	return &AdmissionServer{s: s}, nil
}

// NewAdmissionServerTTL is NewAdmissionServer with RSVP-style soft state:
// reservations expire unless refreshed within ttl (see
// AdmissionClient.Refresh and KeepAlive). Call Close when done.
func NewAdmissionServerTTL(capacity float64, util Utility, ttl time.Duration) (*AdmissionServer, error) {
	s, err := resv.NewServerTTL(capacity, util.f, ttl)
	if err != nil {
		return nil, err
	}
	return &AdmissionServer{s: s}, nil
}

// Close ends the server: it stops the soft-state expiry goroutine (if
// any), closes every stream connection and PacketConn it serves, and
// returns once their reservations are released. A connection or
// PacketConn handed over after Close is closed unserved. It does not close
// a listener passed to Serve.
func (a *AdmissionServer) Close() { a.s.Close() }

// NewAdmissionServerBandwidth returns a server that admits by traffic
// specification: a request for rate r is granted exactly r while the sum
// of granted rates stays within capacity. This is the paper's "certain
// amount … of service" admission literally; ttl = 0 disables soft-state
// expiry.
func NewAdmissionServerBandwidth(capacity float64, ttl time.Duration) (*AdmissionServer, error) {
	s, err := resv.NewServerBandwidth(capacity, ttl)
	if err != nil {
		return nil, err
	}
	return &AdmissionServer{s: s}, nil
}

// Allocated returns the sum of granted rates (bandwidth mode) or the
// active count (flow-count mode).
func (a *AdmissionServer) Allocated() float64 { return a.s.Allocated() }

// Serve accepts and serves connections on ln until it closes.
func (a *AdmissionServer) Serve(ln net.Listener) error { return a.s.Serve(ln) }

// ServePacket serves the reservation protocol in datagram mode on pc: one
// frame per datagram, no connection state, client retransmissions answered
// from the live reservation so a re-sent reserve never admits twice (see
// DESIGN.md §11). It blocks until pc closes or the server closes. A server
// may serve stream and datagram transports at once.
func (a *AdmissionServer) ServePacket(pc net.PacketConn) error { return a.s.ServePacket(pc) }

// HandleConn serves one established connection (useful with net.Pipe).
func (a *AdmissionServer) HandleConn(nc net.Conn) { a.s.HandleConn(nc) }

// Active returns the number of current reservations.
func (a *AdmissionServer) Active() int { return a.s.Active() }

// KMax returns the admission threshold.
func (a *AdmissionServer) KMax() int { return a.s.KMax() }

// Shards returns the lock-stripe width of the server's soft-state tables
// (see DESIGN.md §8).
func (a *AdmissionServer) Shards() int { return a.s.Shards() }

// SetLogf installs a logging callback for protocol events.
func (a *AdmissionServer) SetLogf(logf func(format string, args ...interface{})) {
	a.s.Logf = logf
}

// DebugHandler returns the server's observability endpoints — /metrics
// (Prometheus text, or JSON with ?format=json), /metrics.json, /healthz and
// /debug/pprof/* — ready to mount on any listener (see `beqos serve
// -debug-addr`). The underlying instruments are lock-free; scraping them
// never perturbs the admission path.
func (a *AdmissionServer) DebugHandler() http.Handler {
	return obshttp.DebugMux(a.s.Registry())
}

// AdmissionClient requests reservations from an AdmissionServer.
type AdmissionClient struct {
	c *resv.Client
}

// DialAdmission connects to an admission server.
func DialAdmission(ctx context.Context, network, addr string) (*AdmissionClient, error) {
	c, err := resv.Dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &AdmissionClient{c: c}, nil
}

// NewAdmissionClient wraps an established connection.
func NewAdmissionClient(nc net.Conn) *AdmissionClient {
	return &AdmissionClient{c: resv.NewClient(nc)}
}

// DialAdmissionUDP connects to an admission server's datagram endpoint
// (AdmissionServer.ServePacket). Requests are retransmitted up to
// maxFlights times after timeout-long silences; the server answers a
// retransmission from the live reservation, so a re-sent reserve never
// admits twice. Zero timeout and maxFlights mean 250ms and 4 flights.
func DialAdmissionUDP(ctx context.Context, addr string, timeout time.Duration, maxFlights int) (*AdmissionClient, error) {
	c, err := resv.DialUDP(ctx, addr, resv.UDPConfig{Timeout: timeout, MaxFlights: maxFlights})
	if err != nil {
		return nil, err
	}
	return &AdmissionClient{c: c}, nil
}

// Close drops the connection, releasing all reservations made through it.
func (a *AdmissionClient) Close() error { return a.c.Close() }

// Reserve requests a reservation for flowID.
func (a *AdmissionClient) Reserve(ctx context.Context, flowID uint64, bandwidth float64) (granted bool, share float64, err error) {
	return a.c.Reserve(ctx, flowID, bandwidth)
}

// Teardown releases flowID's reservation.
func (a *AdmissionClient) Teardown(ctx context.Context, flowID uint64) error {
	return a.c.Teardown(ctx, flowID)
}

// Stats returns the server's admission threshold and active count.
func (a *AdmissionClient) Stats(ctx context.Context) (kmax, active int, err error) {
	return a.c.Stats(ctx)
}

// Refresh renews flowID's soft-state deadline on a TTL server, returning
// the server's TTL.
func (a *AdmissionClient) Refresh(ctx context.Context, flowID uint64) (time.Duration, error) {
	return a.c.Refresh(ctx, flowID)
}

// KeepAlive refreshes flowID at the given interval until ctx is canceled
// or a refresh fails; it blocks.
func (a *AdmissionClient) KeepAlive(ctx context.Context, flowID uint64, interval time.Duration) error {
	return a.c.KeepAlive(ctx, flowID, interval)
}

// AdmissionRetryPolicy governs ReserveWithRetry, the live counterpart of
// the paper's §5.2 retrying extension. Zero-valued backoff fields default
// sensibly: only MaxAttempts is required.
type AdmissionRetryPolicy struct {
	// MaxAttempts bounds total attempts (≥ 1).
	MaxAttempts int
	// BaseDelay is the wait before the first retry (0 = retry
	// immediately); Multiplier scales it after each attempt (≥ 1; 0 means
	// 1, a constant delay); Jitter in [0, 1] randomizes each delay by
	// ±Jitter·delay (0 = no jitter).
	BaseDelay  time.Duration
	Multiplier float64
	Jitter     float64
}

// withDefaults fills unset backoff parameters, the same way UDPConfig
// defaults its zero values: a zero-value-plus-MaxAttempts policy must be
// usable, not rejected by the transport's validation.
func (p AdmissionRetryPolicy) withDefaults() AdmissionRetryPolicy {
	if p.Multiplier == 0 {
		p.Multiplier = 1
	}
	return p
}

// ReserveWithRetry requests a reservation, retrying denials with backoff.
// It returns the number of retries performed so callers can account the
// paper's per-retry utility penalty α.
func (a *AdmissionClient) ReserveWithRetry(ctx context.Context, flowID uint64, bandwidth float64, policy AdmissionRetryPolicy) (granted bool, share float64, retries int, err error) {
	policy = policy.withDefaults()
	return a.c.ReserveWithRetry(ctx, flowID, bandwidth, resv.RetryPolicy{
		MaxAttempts: policy.MaxAttempts,
		BaseDelay:   policy.BaseDelay,
		Multiplier:  policy.Multiplier,
		Jitter:      policy.Jitter,
	})
}
