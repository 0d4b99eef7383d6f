package resv

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"beqos/internal/obs"
	"beqos/internal/utility"
)

// The datagram-transport tests run against real UDP sockets on loopback
// with *deterministic* fault injection in the client's connection wrapper:
// dropping an outgoing frame models request loss, dropping an incoming one
// models reply loss. Loopback never reorders or loses datagrams of this
// size on its own, so every retransmission in these tests is one the
// filter forced — the assertions on Grants/DupReserves/Expiries are exact.

// filterConn wraps a datagram connection with deterministic loss. sendDrop
// inspects each outgoing frame and recvDrop each incoming one; returning
// true swallows the datagram. Filters run under a mutex, so closures may
// keep plain counters.
type filterConn struct {
	net.Conn
	mu       sync.Mutex
	sendDrop func(Frame) bool
	recvDrop func(Frame) bool
}

func (fc *filterConn) Write(b []byte) (int, error) {
	if f, err := DecodeDatagram(b); err == nil {
		fc.mu.Lock()
		drop := fc.sendDrop != nil && fc.sendDrop(f)
		fc.mu.Unlock()
		if drop {
			return len(b), nil // request loss: the server never sees it
		}
	}
	return fc.Conn.Write(b)
}

func (fc *filterConn) Read(b []byte) (int, error) {
	for {
		n, err := fc.Conn.Read(b)
		if err != nil {
			return n, err
		}
		if f, derr := DecodeDatagram(b[:n]); derr == nil {
			fc.mu.Lock()
			drop := fc.recvDrop != nil && fc.recvDrop(f)
			fc.mu.Unlock()
			if drop {
				continue // reply loss: the client never sees it
			}
		}
		return n, err
	}
}

// startUDPServer serves s in datagram mode on a loopback socket.
func startUDPServer(t *testing.T, s *Server) net.Addr {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServePacket(pc) }()
	t.Cleanup(func() { _ = pc.Close() })
	return pc.LocalAddr()
}

// dialUDPTest connects a datagram client through a loss filter.
func dialUDPTest(t *testing.T, addr net.Addr, cfg UDPConfig) (*Client, *filterConn) {
	t.Helper()
	nc, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	fc := &filterConn{Conn: nc}
	cl := NewUDPClient(fc, cfg)
	t.Cleanup(func() { _ = cl.Close() })
	return cl, fc
}

// fastUDP keeps retransmission tests quick without shaving margins so thin
// that scheduler hiccups masquerade as packet loss.
var fastUDP = UDPConfig{Timeout: 50 * time.Millisecond, MaxFlights: 4}

// TestUDPBasicRoundTrips drives the lossless datagram path end to end:
// reserve, stats, refresh, teardown, with the datagram counters moving.
func TestUDPBasicRoundTrips(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, _ := dialUDPTest(t, addr, fastUDP)
	c := ctx(t)

	ok, share, err := cl.Reserve(c, 1, 1)
	if err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	if share != 1 { // C/kmax = 4/4
		t.Errorf("share = %g, want 1", share)
	}
	if kmax, active, err := cl.Stats(c); err != nil || kmax != 4 || active != 1 {
		t.Errorf("stats = (%d, %d, %v), want (4, 1, nil)", kmax, active, err)
	}
	if ttl, err := cl.Refresh(c, 1); err != nil || ttl != time.Second {
		t.Errorf("refresh = (%v, %v), want (1s, nil)", ttl, err)
	}
	if err := cl.Teardown(c, 1); err != nil {
		t.Errorf("teardown: %v", err)
	}
	if a := s.Active(); a != 0 {
		t.Errorf("active = %d after teardown, want 0", a)
	}
	m := s.Metrics()
	if got := m.Datagrams.Load(); got != 4 {
		t.Errorf("datagrams = %d, want 4", got)
	}
	if got := m.UDPPeers.Load(); got != 0 {
		t.Errorf("udp peers = %d after teardown, want 0 (peer reaped)", got)
	}
}

// TestUDPRetransmitAtFullLink pins the nastiest dedup corner: the lost
// grant's own admission filled the link, so the retransmitted reserve
// arrives at active == kmax. The fast-path deny must not fire before the
// dedup lookup — the server must recognize the live entry and re-grant,
// in both admission modes.
func TestUDPRetransmitAtFullLink(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	flowCount, err := NewServerTTL(1, r, time.Second) // kmax = 1
	if err != nil {
		t.Fatal(err)
	}
	bandwidth, err := NewServerBandwidth(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Server{"flow-count": flowCount, "bandwidth": bandwidth} {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			addr := startUDPServer(t, s)
			cl, fc := dialUDPTest(t, addr, fastUDP)

			dropped := false
			fc.recvDrop = func(f Frame) bool {
				if f.Type == MsgGrant && !dropped {
					dropped = true
					return true
				}
				return false
			}
			ok, share, err := cl.Reserve(ctx(t), 9, 1)
			if err != nil || !ok {
				t.Fatalf("reserve: ok=%v err=%v (a full-link retransmit was denied?)", ok, err)
			}
			if share != 1 {
				t.Errorf("re-granted share = %g, want the original grant's 1", share)
			}
			if !dropped {
				t.Fatal("filter never dropped a grant; the test exercised nothing")
			}
			m := s.Metrics()
			if g, d, den := m.Grants.Load(), m.DupReserves.Load(), m.Denials.Load(); g != 1 || d != 1 || den != 0 {
				t.Errorf("grants=%d dups=%d denials=%d, want 1, 1, 0", g, d, den)
			}
			if a := s.Active(); a != 1 {
				t.Errorf("active = %d, want 1", a)
			}
		})
	}
}

// TestUDPRetransmitNoDoubleAdmit is the core retransmit-semantics check:
// a reserve whose grant is lost is retransmitted, and the server answers
// from the live entry — re-sending the grant, never admitting twice.
func TestUDPRetransmitNoDoubleAdmit(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, fc := dialUDPTest(t, addr, fastUDP)
	cm := NewClientMetrics(obs.New())
	cl.SetMetrics(cm)

	dropped := false
	fc.recvDrop = func(f Frame) bool {
		if f.Type == MsgGrant && !dropped {
			dropped = true
			return true
		}
		return false
	}
	ok, share, err := cl.Reserve(ctx(t), 7, 1)
	if err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	if share != 1 {
		t.Errorf("re-granted share = %g, want the original grant's 1", share)
	}
	if !dropped {
		t.Fatal("filter never dropped a grant; the test exercised nothing")
	}
	if a := s.Active(); a != 1 {
		t.Errorf("active = %d, want 1 — retransmitted reserve must not double-admit", a)
	}
	m := s.Metrics()
	if g := m.Grants.Load(); g != 1 {
		t.Errorf("server grants = %d, want 1 (admissions only)", g)
	}
	if d := m.DupReserves.Load(); d != 1 {
		t.Errorf("dup reserves = %d, want 1 (one re-sent grant)", d)
	}
	if rt := cm.Retransmits.Load(); rt != 1 {
		t.Errorf("client retransmits = %d, want 1", rt)
	}
}

// TestUDPRequestLossRetransmit covers the other loss direction: the
// request itself vanishes, the retransmit is the first copy the server
// sees, and exactly one admission results.
func TestUDPRequestLossRetransmit(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, fc := dialUDPTest(t, addr, fastUDP)

	dropped := false
	fc.sendDrop = func(f Frame) bool {
		if f.Type == MsgRequest && !dropped {
			dropped = true
			return true
		}
		return false
	}
	ok, _, err := cl.Reserve(ctx(t), 9, 1)
	if err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	m := s.Metrics()
	if g, d := m.Grants.Load(), m.DupReserves.Load(); g != 1 || d != 0 {
		t.Errorf("grants = %d, dups = %d; want 1 admission and no dup (server saw one copy)", g, d)
	}
}

// TestUDPRefreshIdempotentUnderLoss keeps a reservation alive across a TTL
// horizon while every other refresh reply is lost: the retransmitted
// refreshes are idempotent renewals, so the flow must survive until the
// keep-alive stops — and then expire.
func TestUDPRefreshIdempotentUnderLoss(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 400 * time.Millisecond
	s, err := NewServerTTL(4, r, ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, fc := dialUDPTest(t, addr, UDPConfig{Timeout: 25 * time.Millisecond, MaxFlights: 4})

	if ok, _, err := cl.Reserve(ctx(t), 3, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	n := 0
	fc.recvDrop = func(f Frame) bool {
		if f.Type != MsgRefreshOK {
			return false
		}
		n++
		return n%2 == 1 // every other refresh reply lost
	}
	// Refresh across two TTL horizons. Each refresh may need a retransmit
	// (~25ms); an 80ms cadence renews well inside the 400ms TTL anyway.
	deadline := time.Now().Add(2 * ttl)
	for time.Now().Before(deadline) {
		if _, err := cl.Refresh(ctx(t), 3); err != nil {
			t.Fatalf("refresh: %v", err)
		}
		time.Sleep(80 * time.Millisecond)
	}
	if a := s.Active(); a != 1 {
		t.Fatalf("active = %d after refreshing across 2×TTL under loss, want 1", a)
	}
	if n < 2 {
		t.Fatalf("filter saw %d refresh replies; loss injection exercised nothing", n)
	}
	// Stop refreshing: the soft state must now expire on its own.
	waitActive(t, s, 0)
	if e := s.Metrics().Expiries.Load(); e != 1 {
		t.Errorf("expiries = %d, want 1", e)
	}
}

// TestUDPTeardownLossHealedByTTL loses every copy of a teardown: the
// client reports the failure, the reservation lingers, and the soft-state
// TTL — not the signaling — releases it.
func TestUDPTeardownLossHealedByTTL(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, fc := dialUDPTest(t, addr, UDPConfig{Timeout: 10 * time.Millisecond, MaxFlights: 2})

	if ok, _, err := cl.Reserve(ctx(t), 5, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	fc.sendDrop = func(f Frame) bool { return f.Type == MsgTeardown }
	err = cl.Teardown(ctx(t), 5)
	if err == nil || !strings.Contains(err.Error(), "no reply") {
		t.Fatalf("teardown with every copy lost: err = %v, want a no-reply failure", err)
	}
	if a := s.Active(); a != 1 {
		t.Fatalf("active = %d right after lost teardown, want 1 (server never heard it)", a)
	}
	waitActive(t, s, 0) // TTL heals the leak
	m := s.Metrics()
	if e := m.Expiries.Load(); e != 1 {
		t.Errorf("expiries = %d, want 1", e)
	}
	if td := m.Teardowns.Load(); td != 0 {
		t.Errorf("teardowns = %d, want 0 — the release must be the TTL's", td)
	}
}

// TestUDPTeardownReplyLossSynthesized loses only the teardown's
// confirmation: the retransmit finds the flow already gone, the server
// answers "unknown flow", and the client recognizes that as success.
func TestUDPTeardownReplyLossSynthesized(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, fc := dialUDPTest(t, addr, fastUDP)

	if ok, _, err := cl.Reserve(ctx(t), 11, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	dropped := false
	fc.recvDrop = func(f Frame) bool {
		if f.Type == MsgTeardownOK && !dropped {
			dropped = true
			return true
		}
		return false
	}
	if err := cl.Teardown(ctx(t), 11); err != nil {
		t.Fatalf("teardown with lost confirmation: %v, want nil (unknown-flow after retransmit means done)", err)
	}
	if !dropped {
		t.Fatal("filter never dropped a teardown-ok; the test exercised nothing")
	}
	if a := s.Active(); a != 0 {
		t.Errorf("active = %d, want 0", a)
	}
}

// TestUDPMalformedDatagramsDropped sends garbage at the server: it must
// count and drop it without replying (no reflection) and keep serving.
func TestUDPMalformedDatagramsDropped(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(4, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	nc, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for _, junk := range [][]byte{
		[]byte("x"),                       // runt
		make([]byte, FrameSize-1),         // one byte short
		make([]byte, FrameSize+1),         // one byte long
		make([]byte, 64),                  // oversized zeros
		AppendFrame(nil, Frame{Type: 99}), // right size, bad type
	} {
		if _, err := nc.Write(junk); err != nil {
			t.Fatal(err)
		}
	}
	cl, _ := dialUDPTest(t, addr, fastUDP)
	if _, _, err := cl.Stats(ctx(t)); err != nil {
		t.Fatalf("stats after garbage: %v — server stopped serving", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().BadDatagrams.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("bad datagrams = %d, want 5", s.Metrics().BadDatagrams.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if p := s.Metrics().UDPPeers.Load(); p != 0 {
		t.Errorf("udp peers = %d, want 0 (garbage sources never become peers; the stats peer was reaped)", p)
	}
}

// TestDecodeDatagram pins the exact-size contract of the datagram codec.
func TestDecodeDatagram(t *testing.T) {
	wire := AppendFrame(nil, Frame{Type: MsgRequest, FlowID: 42, Value: 1.5})
	f, err := DecodeDatagram(wire)
	if err != nil || f.Type != MsgRequest || f.FlowID != 42 || f.Value != 1.5 {
		t.Fatalf("DecodeDatagram(valid) = %+v, %v", f, err)
	}
	for _, n := range []int{0, 1, FrameSize - 1, FrameSize + 1, 2 * FrameSize} {
		b := append(append([]byte{}, wire...), wire...)[:n]
		if _, err := DecodeDatagram(b); err == nil {
			t.Errorf("DecodeDatagram(%d bytes) = nil error, want ErrBadFrame", n)
		}
	}
}

// TestUDPPeerReapedAfterExpiry pins the reaping of a datagram peer whose
// flows all expired: a client that reserves and then goes quiet must not
// keep its virtual connection once the TTL has taken its last flow.
func TestUDPPeerReapedAfterExpiry(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := startUDPServer(t, s)
	cl, err := DialUDP(ctx(t), addr.String(), fastUDP)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ok, _, err := cl.Reserve(ctx(t), 1, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	m := s.Metrics()
	if p := m.UDPPeers.Load(); p != 1 {
		t.Fatalf("udp peers = %d while the flow is held, want 1", p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Active() != 0 || m.Expiries.Load() != 1 || m.UDPPeers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after expiry: active %d, expiries %d, udp peers %d; want 0, 1, 0 (the quiet peer reaped)",
				s.Active(), m.Expiries.Load(), m.UDPPeers.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.udpMu.Lock()
	n := len(s.udpPeers)
	s.udpMu.Unlock()
	if n != 0 {
		t.Fatalf("%d datagram peers still mapped after the gauge read 0", n)
	}
}

// udpPeerAcrossShards makes a server for the cross-shard reaping tests,
// with its expiry loop stopped (the tests step expiry by hand) and a TTL
// long enough that no wall-clock tick could expire a flow meanwhile. It
// returns the server with two flow IDs in each of four shards, ordered so
// that every shard's list still holds a flow until the second half.
func udpPeerAcrossShards(t *testing.T) (*Server, []uint64) {
	t.Helper()
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(8, r, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Two IDs in each of the first four shards flow IDs 1, 2, ... reach.
	const shards = 4
	byShard := map[*shard][]uint64{}
	var order []*shard
	for id, full := uint64(1), 0; full < shards; id++ {
		sh := s.shardFor(id)
		n := len(byShard[sh])
		if n == 2 || (n == 0 && len(order) == shards) {
			continue
		}
		if n == 0 {
			order = append(order, sh)
		} else {
			full++
		}
		byShard[sh] = append(byShard[sh], id)
	}
	var ids []uint64
	for round := 0; round < 2; round++ {
		for _, sh := range order {
			ids = append(ids, byShard[sh][round])
		}
	}
	return s, ids
}

// udpOp serves one datagram from addr as a reader goroutine does, and
// checks its reply type.
func udpOp(t *testing.T, s *Server, addr net.Addr, f Frame, want MsgType) {
	t.Helper()
	var bs batchStats
	c := s.acquireUDPPeer(addr)
	r := s.dispatch(c, f, s.lc.Now(), &bs)
	s.releaseUDPPeer(c)
	if r.Type != want {
		t.Fatalf("%s flow %d: reply %+v, want %s", f.Type, f.FlowID, r, want)
	}
}

// udpPeerMapped reports whether addr has a datagram peer, and checks the
// peer gauge agrees.
func udpPeerMapped(t *testing.T, s *Server, addr net.Addr) bool {
	t.Helper()
	s.udpMu.Lock()
	c := s.udpPeers[addr.String()]
	n := len(s.udpPeers)
	s.udpMu.Unlock()
	if g := s.Metrics().UDPPeers.Load(); g != int64(n) {
		t.Fatalf("udp peer gauge %d, %d peers mapped", g, n)
	}
	return c != nil
}

// TestUDPPeerAcrossShardsReapedOnTeardown: a datagram peer whose flows sit
// two to a shard in four shards stays mapped while any of them lives, and
// is reaped by the teardown of its last.
func TestUDPPeerAcrossShardsReapedOnTeardown(t *testing.T) {
	s, ids := udpPeerAcrossShards(t)
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40001}
	for _, id := range ids {
		udpOp(t, s, addr, Frame{Type: MsgRequest, FlowID: id, Value: 1}, MsgGrant)
	}
	for i, id := range ids {
		if !udpPeerMapped(t, s, addr) {
			t.Fatalf("peer reaped with %d of its %d flows still held", len(ids)-i, len(ids))
		}
		udpOp(t, s, addr, Frame{Type: MsgTeardown, FlowID: id}, MsgTeardownOK)
	}
	if udpPeerMapped(t, s, addr) {
		t.Fatal("peer still mapped after the teardown of its last flow")
	}
	if a := s.Active(); a != 0 {
		t.Fatalf("active = %d after every teardown", a)
	}
}

// TestUDPPeerAcrossShardsReapedOnExpiry: the same peer's flows, re-armed
// to fall due one at a time, expire one shard after another; the peer is
// reaped by the expiry step that expires its last flow, and not before.
func TestUDPPeerAcrossShardsReapedOnExpiry(t *testing.T) {
	s, ids := udpPeerAcrossShards(t)
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40002}
	for _, id := range ids {
		udpOp(t, s, addr, Frame{Type: MsgRequest, FlowID: id, Value: 1}, MsgGrant)
	}
	s.udpMu.Lock()
	c := s.udpPeers[addr.String()]
	s.udpMu.Unlock()
	res := int64(WheelRes(s.ttl))
	t0 := s.lc.Now() + res
	due := func(i int) int64 { return t0 + int64(i)*8*res + int64(s.ttl) }
	for i, id := range ids {
		if !s.shardFor(id).Refresh(t0+int64(i)*8*res, id, &c.flows) {
			t.Fatalf("refresh flow %d failed", id)
		}
	}
	for i := range ids {
		s.expire(due(i))
		if n := s.Metrics().Expiries.Load(); n != uint64(i) || !udpPeerMapped(t, s, addr) {
			t.Fatalf("at flow %d's deadline: %d expiries (want %d), peer mapped = %v",
				i, n, i, udpPeerMapped(t, s, addr))
		}
		s.expire(due(i) + res)
		if n := s.Metrics().Expiries.Load(); n != uint64(i+1) {
			t.Fatalf("%d expiries one tick past flow %d's deadline, want %d", n, i, i+1)
		}
		if mapped := udpPeerMapped(t, s, addr); mapped != (i < len(ids)-1) {
			t.Fatalf("after flow %d of %d expired: peer mapped = %v", i+1, len(ids), mapped)
		}
	}
	if a := s.Active(); a != 0 {
		t.Fatalf("active = %d after every flow expired", a)
	}
}
