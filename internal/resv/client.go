package resv

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// Client speaks the resv protocol over one connection. Its methods are
// safe for concurrent use.
//
// Over a stream transport (TCP, Unix, net.Pipe) concurrent calls share the
// connection (DESIGN.md §11). A caller writes its own frames, under the
// client's lock; a caller that finds a write in progress leaves its frames
// for that writer, so concurrent calls coalesce into one write. The server
// answers a connection's frames in arrival order, so a reply finds its
// call by FlowID (reserve, teardown, refresh) or first in, first out
// (stats and batches, whose replies carry no flow). A waiting caller reads
// the connection itself when nobody else does, routes every reply it
// decodes to its waiter, and hands the read role to another waiting caller
// once its own reply is in: one call in flight costs one write and one
// read on the caller's goroutine, as a plain request/reply client would. A
// goroutine reads instead only while replies are due that no caller waits
// for: after a call gave up with its frame on the wire while nobody else
// reads. At most one request may be in flight per flow ID.
//
// Over a datagram transport (NewUDPClient/DialUDP) one request is in
// flight at a time, and the client owns reliability: it retransmits the
// request on a reply timeout, skips stale duplicated replies, and leans on
// the server's retransmit semantics — reserve dedups against the live
// grant, refresh is idempotent, and a teardown answered "unknown flow"
// after a retransmit means an earlier flight already succeeded.
type Client struct {
	nc net.Conn
	// metrics, if non-nil, observes every round trip (atomics-only; a set
	// may be shared across clients). Install with SetMetrics before use.
	metrics *ClientMetrics
	// udp, when non-nil, switches round trips to datagram mode with the
	// given retransmit parameters.
	udp *UDPConfig

	// mu guards the fields below. In datagram mode it is held for a whole
	// round trip; in stream mode only while a call registers, a reply is
	// routed or a call leaves, never across a read or a write.
	mu sync.Mutex
	// udpStale marks that a previous datagram round trip may have left
	// late replies queued in the socket: it retransmitted (a reply that
	// was delayed rather than lost means two answers on the wire) or gave
	// up with flights unanswered. Before the next request the socket is
	// swept — a stale DENY or GRANT for a re-requested flow ID would be
	// indistinguishable from the new answer.
	udpStale bool
	// err is terminal: set once, by Close or by a failed read or write.
	err error
	// wq holds the frames waiting for the next write; wout is the buffer
	// the write in progress sends. The two swap, so neither reallocates.
	wq, wout []byte
	writing  bool
	// pending holds the flow-scoped calls in flight, keyed by flow ID, from
	// send until their waiter has read the reply. Stats and batch calls,
	// whose replies carry no flow ID, queue in send order — the order the
	// server answers in — and spare keeps them for reuse.
	pending Table[*call]
	queue   callq
	spare   *call
	// reading: a goroutine holds the read role. nwait counts the callers
	// parked for their reply or the role, orphans the replies due that no
	// caller waits for.
	reading bool
	nwait   int
	orphans int
	// rdl: a read deadline may be set on nc, by interrupt or fail.
	rdl bool
	// turn (1-buffered) wakes a parked caller to take the free read role.
	turn chan struct{}
	wg   sync.WaitGroup // reader goroutines

	// Owned by the read role's holder: rbuf[:rn] holds received bytes not
	// yet decoded (at most a partial frame between reads), frames holds the
	// last read's decoded frames. A datagram round trip reads into
	// rbuf[:FrameSize] and encodes its request into wout.
	rbuf   [clientReadFrames * FrameSize]byte
	rn     int
	frames []Frame
}

// clientReadFrames is how many frames one read can take in: 1280 bytes,
// one TCP segment.
const clientReadFrames = 64

// call is one request awaiting its reply. A flow-scoped call goes back to
// Client.pending for Reuse, and a queued one to Client.spare, only once its
// waiter has read the reply, or, abandoned, once nothing refers to it.
type call struct {
	slot  Slot[*call]
	req   Frame
	reply Frame
	err   error
	state callState
	// parked: the waiter is blocked in await, counted in nwait. woken: a
	// token waits in wake for it.
	parked, woken bool
	next          *call // Client.queue, or the spare list
	wake          chan struct{}
}

type callState uint8

const (
	callWaiting callState = iota
	callDone
	// callAbandoned: the waiter left before the reply, which is still due.
	callAbandoned
)

// callq is a queue of calls answered in send order.
type callq struct{ head, tail *call }

func (q *callq) push(cl *call) {
	if q.tail != nil {
		q.tail.next = cl
	} else {
		q.head = cl
	}
	q.tail = cl
}

func (q *callq) pop() *call {
	cl := q.head
	if cl != nil {
		q.head, cl.next = cl.next, nil
		if q.head == nil {
			q.tail = nil
		}
	}
	return cl
}

// UDPConfig tunes the datagram transport's request-level retransmit.
type UDPConfig struct {
	// Timeout is how long one flight waits for a reply before the request
	// is retransmitted (default 250ms).
	Timeout time.Duration
	// MaxFlights caps total sends per request, first attempt included
	// (default 4): a request still unanswered after MaxFlights·Timeout
	// fails the round trip.
	MaxFlights int
}

// withDefaults fills unset retransmit parameters.
func (cfg UDPConfig) withDefaults() UDPConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.MaxFlights < 1 {
		cfg.MaxFlights = 4
	}
	return cfg
}

// Dial connects to a resv server at the given network address.
func Dial(ctx context.Context, network, addr string) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("resv: dial %s %s: %w", network, addr, err)
	}
	return NewClient(nc), nil
}

// NewClient wraps an established stream connection (e.g. one end of a
// net.Pipe). It starts no goroutine.
func NewClient(nc net.Conn) *Client {
	return &Client{
		nc:     nc,
		wq:     make([]byte, 0, clientReadFrames*FrameSize),
		wout:   make([]byte, 0, clientReadFrames*FrameSize),
		turn:   make(chan struct{}, 1),
		frames: make([]Frame, 0, clientReadFrames),
	}
}

// MuxClient and NewMuxClient name the one stream client by its former
// multiplexing type, for callers not yet moved to Client.
type MuxClient = Client

// NewMuxClient is NewClient.
func NewMuxClient(nc net.Conn) *Client { return NewClient(nc) }

// DialUDP connects to a resv server's datagram endpoint. The connection is
// a connected UDP socket: the OS filters datagrams to the server's address,
// so readDatagram never sees unrelated traffic.
func DialUDP(ctx context.Context, addr string, cfg UDPConfig) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resv: dial udp %s: %w", addr, err)
	}
	return NewUDPClient(nc, cfg), nil
}

// NewUDPClient wraps an established datagram connection (a connected
// *net.UDPConn, or any net.Conn with datagram semantics — each Write sends
// one datagram, each Read returns one) in a client running the datagram
// transport's retransmit protocol.
func NewUDPClient(nc net.Conn, cfg UDPConfig) *Client {
	cfg = cfg.withDefaults()
	c := NewClient(nc)
	c.udp = &cfg
	return c
}

// Close tears down the connection and fails every call in flight; the
// server releases all reservations held through it. It returns once the
// client's reader goroutine, if one runs, is gone.
func (c *Client) Close() error {
	if c.udp == nil {
		c.mu.Lock()
		c.fail(fmt.Errorf("resv: client closed: %w", net.ErrClosed))
		c.mu.Unlock()
	}
	err := c.nc.Close()
	c.wg.Wait()
	return err
}

// SetMetrics installs a client instrument set (see NewClientMetrics); nil
// disables instrumentation. Not safe to call concurrently with requests.
func (c *Client) SetMetrics(m *ClientMetrics) { c.metrics = m }

// Post sends a one-way frame (MsgGossip) that the peer never answers, on
// an idle connection only: while a write is in progress the frame is
// dropped (gossip is refreshed continuously) and queued reports false, so
// senders tracking what the peer has seen don't mark it delivered. That
// writer may be the only caller due a reply, and a peer that answers
// before it reads on (a server on a net.Pipe) would wait for the reply to
// be read while the writer waits to hand it the frame. Post starts no
// reader: a reply the peer sends anyway (a resv server answers gossip with
// bad-request) waits for the next call's read, which drops it.
func (c *Client) Post(f Frame) (queued bool, err error) {
	if c.udp != nil {
		return false, errors.New("resv: post needs a stream transport")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return false, c.err
	}
	if c.writing {
		return false, nil
	}
	c.wq = AppendFrame(c.wq, f)
	c.write()
	return c.err == nil, c.err
}

// roundTrip sends one request and returns its reply, honoring the
// context. sent reports whether the request went to the wire: when it did
// and err is non-nil, the server may have acted on it though no reply came
// back.
func (c *Client) roundTrip(ctx context.Context, req Frame) (reply Frame, sent bool, err error) {
	if c.udp != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.roundTripUDP(ctx, req)
	}
	// Clock reads only when instrumented: the uninstrumented round trip
	// stays free of time syscalls.
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	reply, sent, err = c.exchange(ctx, req, nil)
	if c.metrics != nil && sent {
		c.metrics.observe(req, reply, time.Since(t0), err)
	}
	return reply, sent, err
}

// exchange is one stream call: register req's call, queue req and body
// for the wire, and wait for the reply. sent is as for roundTrip.
func (c *Client) exchange(ctx context.Context, req Frame, body []Frame) (reply Frame, sent bool, err error) {
	if err := ctx.Err(); err != nil {
		return Frame{}, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return Frame{}, false, c.err
	}
	q := queued(req.Type)
	cl := c.spare
	if !q {
		if c.pending.Get(req.FlowID) != nil {
			return Frame{}, false, fmt.Errorf("resv: flow %d already has a request in flight", req.FlowID)
		}
		cl = c.pending.Reuse()
	} else if cl != nil {
		c.spare, cl.next = cl.next, nil
	}
	if cl == nil {
		cl = &call{wake: make(chan struct{}, 1)}
	}
	cl.req, cl.reply, cl.err, cl.state = req, Frame{}, nil, callWaiting
	if q {
		c.queue.push(cl)
	} else {
		c.pending.Insert(&cl.slot, req.FlowID, cl)
	}
	c.wq = AppendFrame(c.wq, req)
	for _, f := range body {
		c.wq = AppendFrame(c.wq, f)
	}
	c.write()
	reply, err = c.await(ctx, cl)
	return reply, true, err
}

// queued reports whether replies to t carry no flow ID, so its calls wait
// in Client.queue rather than in pending.
func queued(t MsgType) bool { return t == MsgStats || t == MsgReserveBatch }

// write sends c.wq unless a write is already in progress, whose writer
// then sends it too: a caller that finds the connection busy leaves its
// frames behind and goes on to wait, so concurrent calls coalesce into one
// write. A write blocks until the peer takes it or the connection fails.
// c.mu is held on entry and on return, and released across each write.
func (c *Client) write() {
	if c.writing {
		return
	}
	c.writing = true
	for len(c.wq) > 0 && c.err == nil {
		buf := c.wq
		c.wq = c.wout
		c.mu.Unlock()
		_, err := c.nc.Write(buf)
		c.mu.Lock()
		c.wout = buf[:0]
		if err != nil {
			c.fail(fmt.Errorf("resv: write: %w", err))
		}
	}
	c.writing = false
}

// await waits for cl's reply, taking the read role whenever it is free,
// and recycles cl. c.mu is held on entry and on return.
func (c *Client) await(ctx context.Context, cl *call) (Frame, error) {
	for cl.state == callWaiting {
		if !c.reading {
			c.read(ctx, cl)
			continue
		}
		cl.parked = true
		c.nwait++
		c.mu.Unlock()
		select {
		case <-cl.wake:
			c.mu.Lock()
			cl.woken = false
		case <-c.turn:
			c.mu.Lock()
		case <-ctx.Done():
			c.mu.Lock()
			if cl.state == callWaiting {
				c.abandon(cl)
			}
		}
		if cl.parked {
			cl.parked = false
			c.nwait--
		}
	}
	// Pass on a turn this caller took but did not use, or start a reader
	// for the replies an abandoned call left due.
	c.kick()
	if cl.state == callAbandoned {
		return Frame{}, ctx.Err()
	}
	if cl.woken {
		cl.woken = false
		<-cl.wake
	}
	reply, err := cl.reply, cl.err
	c.recycle(cl)
	return reply, err
}

// read holds the read role for cl's caller: it reads and routes replies
// until cl is answered or ctx ends, then frees the role. c.mu is held on
// entry and on return.
func (c *Client) read(ctx context.Context, cl *call) {
	c.reading = true
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.interrupt)
	}
	c.clearDeadline()
	for cl.state == callWaiting {
		if ctx.Err() != nil {
			c.abandon(cl)
			break
		}
		c.readOnce(cl)
	}
	c.reading = false
	if stop != nil {
		stop()
	}
}

// readLoop is the reader goroutine kick starts: it reads while replies are
// due that no caller waits for, routing the parked callers' replies
// meanwhile.
func (c *Client) readLoop() {
	defer c.wg.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearDeadline()
	for c.err == nil && c.orphans > 0 {
		c.readOnce(nil)
	}
	c.reading = false
	c.kick()
}

// kick makes sure somebody reads while replies are due: with the read role
// free, it wakes a parked caller to take it or, with nobody parked and
// replies due that no caller waits for, starts readLoop. Caller holds c.mu.
func (c *Client) kick() {
	if c.reading || c.err != nil {
		return
	}
	if c.nwait > 0 {
		select {
		case c.turn <- struct{}{}:
		default: // a turn is already posted
		}
	} else if c.orphans > 0 {
		c.reading = true
		c.wg.Add(1)
		go c.readLoop()
	}
}

// readOnce reads the connection once and routes the replies that came in;
// me is the reading caller's call (nil for readLoop). c.mu is held on
// entry and on return, and released across the read.
func (c *Client) readOnce(me *call) {
	c.mu.Unlock()
	n, err := c.nc.Read(c.rbuf[c.rn:])
	frames, rest, derr := DecodeFrames(c.frames[:0], c.rbuf[:c.rn+n])
	c.frames, c.rn = frames, copy(c.rbuf[:], rest)
	c.mu.Lock()
	for _, f := range frames {
		c.route(f, me)
	}
	ne, _ := err.(net.Error)
	switch {
	case derr != nil:
		c.fail(fmt.Errorf("resv: read: %w", derr))
	case err == nil:
	case ne != nil && ne.Timeout() && c.err == nil:
		// An interrupt: the reader checks its own context and reads on.
		c.clearDeadline()
	default:
		c.fail(fmt.Errorf("resv: read: %w", err))
	}
}

// route hands one reply to the call it answers: the queue's head for a
// stats or batch reply, otherwise the flow's pending call, if the reply is of
// a type the request can draw (udpReplyMatches — the datagram client's
// rule). A reply no call waits for — the late answer of a call whose
// waiter gave up — is dropped. Caller holds c.mu.
func (c *Client) route(f Frame, me *call) {
	var cl *call
	switch f.Type {
	case MsgStatsReply, MsgReserveBatchReply:
		cl = c.queue.pop()
	default:
		cl = c.pending.Get(f.FlowID)
		if cl != nil && (cl.state != callWaiting || !udpReplyMatches(cl.req, f)) {
			cl = nil
		}
	}
	if cl == nil || cl.state == callAbandoned {
		if c.orphans > 0 {
			c.orphans--
		}
		if cl != nil {
			c.recycle(cl)
		}
		return
	}
	c.complete(cl, f, nil, me)
}

// complete answers cl and wakes its waiter, unless the waiter is the
// reader itself (me). Caller holds c.mu.
func (c *Client) complete(cl *call, reply Frame, err error, me *call) {
	cl.reply, cl.err, cl.state = reply, err, callDone
	if cl.parked {
		cl.parked = false
		c.nwait--
	}
	if cl != me {
		cl.woken = true
		cl.wake <- struct{}{}
	}
}

// abandon lets cl's waiter leave before its reply, which is still due and
// becomes an orphan for whoever reads. A flow-scoped call leaves pending at
// once, freeing its flow ID; a queued call keeps its place, so the queue
// stays aligned with the replies, and is recycled by its reply. Caller
// holds c.mu.
func (c *Client) abandon(cl *call) {
	c.orphans++
	cl.state = callAbandoned
	if !queued(cl.req.Type) {
		c.pending.Remove(&cl.slot)
	}
}

// recycle keeps a finished call for reuse. Caller holds c.mu.
func (c *Client) recycle(cl *call) {
	if queued(cl.req.Type) {
		c.spare, cl.next = cl, c.spare
	} else {
		c.pending.Remove(&cl.slot)
	}
}

// fail ends the client with err (the first error wins): every call in
// flight fails with it, later calls fail at once, and a blocked reader is
// woken. Caller holds c.mu.
func (c *Client) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.wq = c.wq[:0]
	c.pending.Each(func(cl *call) {
		if cl.state == callWaiting {
			c.complete(cl, Frame{}, err, nil)
		}
	})
	for cl := c.queue.pop(); cl != nil; cl = c.queue.pop() {
		if cl.state == callAbandoned {
			c.recycle(cl)
		} else {
			c.complete(cl, Frame{}, err, nil)
		}
	}
	c.rdl = true
	_ = c.nc.SetReadDeadline(aLongTimeAgo)
}

// aLongTimeAgo is a read deadline in the past: it ends a blocked read.
var aLongTimeAgo = time.Unix(1, 0)

// interrupt ends the read role holder's blocking read, for a caller whose
// context ended. A holder woken for another's context clears the deadline
// and reads on.
func (c *Client) interrupt() {
	c.mu.Lock()
	if c.reading && c.err == nil {
		c.rdl = true
		_ = c.nc.SetReadDeadline(aLongTimeAgo)
	}
	c.mu.Unlock()
}

// clearDeadline undoes an interrupt before the next read. Caller holds
// c.mu.
func (c *Client) clearDeadline() {
	if c.rdl && c.err == nil {
		c.rdl = false
		_ = c.nc.SetReadDeadline(time.Time{})
	}
}

// roundTripUDP is the datagram round trip: send the request, wait up to one
// flight timeout for a matching reply, retransmit on silence, give up after
// MaxFlights. Caller holds c.mu. Non-matching replies — late duplicates
// from an earlier flight's retransmit, or garbage — are skipped without
// consuming flight budget; only the timer bounds them.
func (c *Client) roundTripUDP(ctx context.Context, req Frame) (Frame, bool, error) {
	if c.udpStale {
		c.udpStale = false
		c.drainUDP()
	}
	var overall time.Time // zero: no overall deadline
	if d, ok := ctx.Deadline(); ok {
		overall = d
	}
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	sent := false
	fail := func(err error) (Frame, bool, error) {
		// Flights that went out unanswered may still draw replies after we
		// give up; sweep them before the next request touches the socket.
		if sent {
			c.udpStale = true
		}
		if c.metrics != nil {
			c.metrics.observe(req, Frame{}, 0, err)
		}
		return Frame{}, sent, err
	}
	for flight := 1; flight <= c.udp.MaxFlights; flight++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if flight > 1 && c.metrics != nil {
			c.metrics.Retransmits.Inc()
		}
		c.wout = AppendFrame(c.wout[:0], req)
		if _, err := c.nc.Write(c.wout); err != nil {
			// A datagram send fails only locally (closed socket, bad
			// address); on-path loss is silent and handled by the timer.
			return fail(fmt.Errorf("resv: send %s: %w", req.Type, err))
		}
		sent = true
		rto := time.Now().Add(c.udp.Timeout)
		if !overall.IsZero() && overall.Before(rto) {
			rto = overall
		}
		if err := c.nc.SetReadDeadline(rto); err != nil {
			return fail(fmt.Errorf("resv: set deadline: %w", err))
		}
		for {
			reply, err := c.readDatagram()
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // flight expired; retransmit
				}
				return fail(fmt.Errorf("resv: awaiting reply to %s: %w", req.Type, err))
			}
			if !udpReplyMatches(req, reply) {
				continue
			}
			// A teardown answered "unknown flow" after a retransmit means an
			// earlier flight tore the flow down and its reply was lost — the
			// operation succeeded, so synthesize the confirmation.
			if flight > 1 && req.Type == MsgTeardown && reply.Type == MsgError &&
				ErrorCode(reply.Value) == ErrCodeUnknownFlow {
				reply = Frame{Type: MsgTeardownOK, FlowID: req.FlowID}
			}
			if flight > 1 {
				// A retransmit means up to flight replies are on the wire
				// and we consumed one. If the reply was late rather than
				// lost, the extras will land in the socket buffer, where a
				// later re-request of the same flow ID could mistake one —
				// a stale DENY, say — for its own answer.
				c.udpStale = true
			}
			if c.metrics != nil {
				c.metrics.Flights.Record(uint64(flight))
				c.metrics.observe(req, reply, time.Since(t0), nil)
			}
			return reply, true, nil
		}
	}
	return fail(fmt.Errorf("resv: %s flow %d: no reply after %d flights of %v",
		req.Type, req.FlowID, c.udp.MaxFlights, c.udp.Timeout))
}

// readDatagram reads one datagram into the read buffer and decodes it.
// Unlike a stream read it never spans reads: a runt or oversized datagram
// is a decode error for that packet alone, not a framing desync. Caller
// holds c.mu.
func (c *Client) readDatagram() (Frame, error) {
	n, err := c.nc.Read(c.rbuf[:FrameSize])
	if err != nil {
		return Frame{}, err
	}
	f, err := DecodeDatagram(c.rbuf[:n])
	if err != nil {
		// Treat garbage like a non-matching reply: report a frame that
		// matches nothing so the caller keeps waiting out the flight.
		return Frame{}, nil
	}
	return f, nil
}

// drainUDP sweeps leftover replies from an earlier round trip out of the
// socket. Everything read here predates the next request, so discarding it
// is always correct; keeping it could alias a later exchange for the same
// flow ID. The window is a fraction of the flight timeout: long enough on
// any path for a trailing duplicate to land, short enough that the cost is
// only paid after the rare round trip that retransmitted or gave up.
// Caller holds c.mu.
func (c *Client) drainUDP() {
	window := c.udp.Timeout / 2
	if window < time.Millisecond {
		window = time.Millisecond
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(window)); err != nil {
		return
	}
	for {
		if _, err := c.nc.Read(c.rbuf[:FrameSize]); err != nil {
			return
		}
	}
}

// udpReplyMatches reports whether reply can answer req: right flow, and a
// type the request could elicit. Anything else is a stale duplicate from an
// earlier exchange. Both transports route replies by it. (A stale MsgError
// for the same flow is indistinguishable from a fresh one and may be
// matched; errors carry no sequence numbers in the 20-byte frame.)
func udpReplyMatches(req, reply Frame) bool {
	switch req.Type {
	case MsgRequest:
		return reply.FlowID == req.FlowID &&
			(reply.Type == MsgGrant || reply.Type == MsgDeny || reply.Type == MsgError)
	case MsgTeardown:
		return reply.FlowID == req.FlowID &&
			(reply.Type == MsgTeardownOK || reply.Type == MsgError)
	case MsgRefresh:
		return reply.FlowID == req.FlowID &&
			(reply.Type == MsgRefreshOK || reply.Type == MsgError)
	case MsgStats:
		return reply.Type == MsgStatsReply
	default:
		return true
	}
}

// Reserve requests a reservation for flowID with the given bandwidth
// demand. It reports whether the reservation was granted, and the granted
// share when it was. Reservations live until torn down, expired by the
// server's TTL, or the client's connection closes.
func (c *Client) Reserve(ctx context.Context, flowID uint64, bandwidth float64) (granted bool, share float64, err error) {
	granted, share, _, err = c.reserve(ctx, flowID, bandwidth, 0)
	return granted, share, err
}

// ReserveClass is Reserve with an admission class (policy.ClassStandard /
// ClassCritical / ClassSheddable), carried in the request frame's class
// bits. Class 0 requests are byte-identical to Reserve; class-unaware
// servers (and policies) ignore the bits.
func (c *Client) ReserveClass(ctx context.Context, flowID uint64, bandwidth float64, class uint8) (granted bool, share float64, err error) {
	granted, share, _, err = c.reserve(ctx, flowID, bandwidth, class)
	return granted, share, err
}

// reserve is Reserve plus a sent indicator: when the request hit the wire
// but the reply was lost, the server may hold a grant the caller never saw.
func (c *Client) reserve(ctx context.Context, flowID uint64, bandwidth float64, class uint8) (granted bool, share float64, sent bool, err error) {
	reply, sent, err := c.roundTrip(ctx, Frame{Type: MsgRequest, Class: class, FlowID: flowID, Value: bandwidth})
	switch {
	case err != nil:
		return false, 0, sent, err
	case reply.Type == MsgGrant:
		return true, reply.Value, true, nil
	case reply.Type == MsgError:
		return false, 0, true, fmt.Errorf("resv: reserve flow %d: server error code %d", flowID, uint64(reply.Value))
	}
	return false, 0, true, nil // MsgDeny: udpReplyMatches admits no other reply
}

// ReserveBatch ships up to MaxBatch reservation ops — MsgRequest and
// MsgTeardown frames, processed by the server strictly in order — as one
// multi-reserve frame sequence and one reply: a single round trip where N
// single ops would pay N. Bit i of the verdict reports op i (granted /
// torn down); share is the server's count-mode worst-case share, 0 in
// bandwidth mode. The ops are encoded before the call waits, so the
// caller may reuse the slice once it returns. An op of any other type is
// refused before anything is sent: the server would abort the body and
// answer its frames one by one, so no batch reply would come. Stream
// transports only: the datagram transport has no retransmit story for
// partially-applied batches, so it refuses.
func (c *Client) ReserveBatch(ctx context.Context, ops []Frame) (BatchVerdict, float64, error) {
	if len(ops) < 1 || len(ops) > MaxBatch {
		return 0, 0, fmt.Errorf("resv: batch of %d ops (want 1..%d)", len(ops), MaxBatch)
	}
	for i, op := range ops {
		if op.Type != MsgRequest && op.Type != MsgTeardown {
			return 0, 0, fmt.Errorf("resv: batch op %d is a %s frame (want %s or %s)", i, op.Type, MsgRequest, MsgTeardown)
		}
	}
	if c.udp != nil {
		return 0, 0, fmt.Errorf("resv: batched reserve needs a stream transport")
	}
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	reply, sent, err := c.exchange(ctx, BatchHeader(len(ops)), ops)
	v := BatchVerdict(reply.FlowID)
	if c.metrics != nil && sent {
		c.metrics.observeBatch(ops, v, time.Since(t0), err)
	}
	if err != nil {
		return 0, 0, err
	}
	return v, reply.Value, nil
}

// Teardown releases flowID's reservation.
func (c *Client) Teardown(ctx context.Context, flowID uint64) error {
	reply, _, err := c.roundTrip(ctx, Frame{Type: MsgTeardown, FlowID: flowID})
	if err == nil && reply.Type == MsgError {
		err = fmt.Errorf("resv: teardown flow %d: server error code %d", flowID, uint64(reply.Value))
	}
	return err
}

// Refresh renews flowID's soft-state deadline on a TTL server. It returns
// the server's TTL (0 when the server never expires reservations).
func (c *Client) Refresh(ctx context.Context, flowID uint64) (ttl time.Duration, err error) {
	reply, _, err := c.roundTrip(ctx, Frame{Type: MsgRefresh, FlowID: flowID})
	switch {
	case err != nil:
		return 0, err
	case reply.Type == MsgError:
		return 0, fmt.Errorf("resv: refresh flow %d: server error code %d", flowID, uint64(reply.Value))
	}
	return time.Duration(reply.Value * float64(time.Second)), nil
}

// KeepAlive refreshes flowID at the given interval until ctx is canceled
// or a refresh fails (e.g. the reservation was torn down or already
// expired). It refreshes once immediately on entry — a first refresh only
// after a full interval could miss the reservation's first TTL deadline —
// and rejects interval ≥ the server's TTL, which would guarantee expiry
// between refreshes. It blocks; run it in its own goroutine. The returned
// error is nil on context cancellation.
func (c *Client) KeepAlive(ctx context.Context, flowID uint64, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("resv: keep-alive interval must be positive, got %v", interval)
	}
	ttl, err := c.Refresh(ctx, flowID)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	if ttl > 0 && interval >= ttl {
		return fmt.Errorf("resv: keep-alive interval %v must be shorter than the server TTL %v", interval, ttl)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if _, err := c.Refresh(ctx, flowID); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
		}
	}
}

// Stats returns the server's admission threshold and active reservation
// count.
func (c *Client) Stats(ctx context.Context) (kmax, active int, err error) {
	reply, _, err := c.roundTrip(ctx, Frame{Type: MsgStats})
	if err != nil {
		return 0, 0, err
	}
	return statsFromReply(reply)
}

// RetryPolicy governs ReserveWithRetry, mirroring the paper's §5.2
// retrying extension: a denied request waits and tries again, at a utility
// cost per retry that the caller accounts separately.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (≥ 1).
	MaxAttempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// Multiplier scales the delay after each attempt (≥ 1).
	Multiplier float64
	// Jitter, in [0, 1], randomizes each delay by ±Jitter·delay to avoid
	// synchronized retry storms. 0 means no jitter.
	Jitter float64
	// Rand, if non-nil, supplies the jitter draws (uniform in [0, 1)), so
	// harnesses can seed the backoff sequence and reproduce a run exactly;
	// nil falls back to the process-global generator. Ignored when Jitter
	// is 0.
	Rand func() float64
}

// jittered randomizes one backoff delay by ±Jitter·d, drawing from the
// policy's injected generator or the process-global one.
func (p RetryPolicy) jittered(d time.Duration) time.Duration {
	if p.Jitter <= 0 || d <= 0 {
		return d
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	return time.Duration(float64(d) * (1 + p.Jitter*(2*r()-1)))
}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("resv: retry policy needs MaxAttempts ≥ 1, got %d", p.MaxAttempts)
	}
	if p.BaseDelay < 0 || p.Multiplier < 1 || p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("resv: invalid retry policy {MaxAttempts:%d BaseDelay:%v Multiplier:%g Jitter:%g}",
			p.MaxAttempts, p.BaseDelay, p.Multiplier, p.Jitter)
	}
	return nil
}

// ReserveWithRetry requests a reservation, retrying denials per the policy
// until granted, the attempts are exhausted, or the context expires. It
// returns the granted share and the number of retries performed (0 when
// the first attempt succeeded). When all attempts are denied it returns
// granted = false with a nil error.
func (c *Client) ReserveWithRetry(ctx context.Context, flowID uint64, bandwidth float64, policy RetryPolicy) (granted bool, share float64, retries int, err error) {
	if err := policy.Validate(); err != nil {
		return false, 0, 0, err
	}
	delay := policy.BaseDelay
	for attempt := 1; ; attempt++ {
		ok, sh, sent, err := c.reserve(ctx, flowID, bandwidth, 0)
		if err != nil {
			if sent {
				// The request reached the wire but no usable answer came
				// back (timeout, connection drop). The server may hold the
				// grant while we report failure — release it rather than
				// leak a reservation nobody will use or tear down, waiting
				// up to a second. The failed request's late reply cannot
				// answer the teardown (udpReplyMatches). Errors are
				// deliberately swallowed: the connection is already
				// suspect, and closing it remains the backstop that
				// releases everything.
				tctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, _, _ = c.roundTrip(tctx, Frame{Type: MsgTeardown, FlowID: flowID})
				cancel()
			}
			return false, 0, attempt - 1, err
		}
		if ok {
			return true, sh, attempt - 1, nil
		}
		if attempt >= policy.MaxAttempts {
			return false, 0, attempt - 1, nil
		}
		if c.metrics != nil {
			c.metrics.Retries.Inc()
		}
		d := policy.jittered(delay)
		select {
		case <-ctx.Done():
			return false, 0, attempt - 1, ctx.Err()
		case <-time.After(d):
		}
		delay = time.Duration(float64(delay) * policy.Multiplier)
	}
}
