package resv

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"beqos/internal/utility"
)

// serveConn hands one end of a pipe to s.HandleConn and returns the other
// end and a channel closed once HandleConn returns.
func serveConn(s *Server) (net.Conn, <-chan struct{}) {
	cEnd, sEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.HandleConn(sEnd)
	}()
	return cEnd, done
}

// returned fails the test unless done is closed within the package's
// usual deadline.
func returned(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s has not returned", what)
	}
}

// TestCloseReleasesStreamFlows: closing a server ends its stream
// connections, and Close returns only once their flows are released, each
// counted once in resv_releases_total.
func TestCloseReleasesStreamFlows(t *testing.T) {
	s := newServer(t, 8)
	cEnd, done := serveConn(s)
	c := NewClient(cEnd)
	defer func() { _ = c.Close() }()
	const held = 5
	for id := uint64(1); id <= held; id++ {
		if granted, _, err := c.Reserve(ctx(t), id, 1); err != nil || !granted {
			t.Fatalf("reserve %d: granted=%v err=%v", id, granted, err)
		}
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	returned(t, "Close", closed)
	if a := s.Active(); a != 0 {
		t.Fatalf("%d flows held once Close returned", a)
	}
	if r := s.Metrics().Releases.Load(); r != held {
		t.Fatalf("resv_releases_total = %d, want the %d flows the connection held", r, held)
	}
	returned(t, "HandleConn", done)
	if _, _, err := c.Reserve(ctx(t), held+1, 1); err == nil {
		t.Fatal("a reserve on the closed server's connection succeeded")
	}
}

// TestHandleConnAfterClose: a connection handed over once the server is
// closed is closed unserved, and holds nothing.
func TestHandleConnAfterClose(t *testing.T) {
	s := newServer(t, 8)
	s.Close()
	cEnd, done := serveConn(s)
	defer func() { _ = cEnd.Close() }()
	returned(t, "HandleConn after Close", done)
	if _, err := cEnd.Write(AppendFrame(nil, Frame{Type: MsgRequest, FlowID: 1, Value: 1})); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to a connection handed over after Close: %v, want %v", err, io.ErrClosedPipe)
	}
	if a, n := s.Active(), s.Metrics().Connections.Load(); a != 0 || n != 0 {
		t.Fatalf("after Close: %d flows and %d connections, want none", a, n)
	}
}

// TestCloseEndsDatagramServing: closing a server ends ServePacket, and
// Close returns only once every datagram peer's flows are released, each
// counted once in resv_releases_total. A PacketConn handed over after
// Close is closed unserved.
func TestCloseEndsDatagramServing(t *testing.T) {
	s := newServer(t, 8)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var serr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		serr = s.ServePacket(pc)
	}()
	c, err := DialUDP(ctx(t), pc.LocalAddr().String(), UDPConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const held = 3
	for id := uint64(1); id <= held; id++ {
		if granted, _, err := c.Reserve(ctx(t), id, 1); err != nil || !granted {
			t.Fatalf("reserve %d: granted=%v err=%v", id, granted, err)
		}
	}
	s.Close()
	returned(t, "ServePacket", done)
	if !errors.Is(serr, net.ErrClosed) {
		t.Fatalf("ServePacket returned %v, want %v", serr, net.ErrClosed)
	}
	if a := s.Active(); a != 0 {
		t.Fatalf("%d flows held once Close returned", a)
	}
	if r, p := s.Metrics().Releases.Load(), s.Metrics().UDPPeers.Load(); r != held || p != 0 {
		t.Fatalf("resv_releases_total = %d and %d datagram peers, want the %d flows the peer held and none", r, p, held)
	}

	late, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := s.ServePacket(late); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ServePacket after Close returned %v, want %v", err, net.ErrClosed)
	}
	if err := late.SetReadDeadline(time.Now()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("a PacketConn handed over after Close is still open: %v", err)
	}
}

// lifecycleGoroutines counts the goroutines running code in lifecycle.go:
// loops the runner started and connections being served.
func lifecycleGoroutines() (int, string) {
	buf := make([]byte, 1<<20)
	n, stacks := 0, ""
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "/lifecycle.go:") {
			n++
			stacks += g + "\n\n"
		}
	}
	return n, stacks
}

// TestCloseEndsLoops: a TTL server's expiry loop and the handler of its
// stream connection run on its lifecycle; once Close returns neither
// does, as TestHopCoalescerNoGoroutine checks for the hop coalescer.
// Goroutines of earlier tests are counted in the baseline.
func TestCloseEndsLoops(t *testing.T) {
	base, _ := lifecycleGoroutines()
	s, err := NewServerTTL(8, utility.NewAdaptive(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cEnd, done := serveConn(s)
	defer func() { _ = cEnd.Close() }()
	c := NewClient(cEnd)
	if granted, _, err := c.Reserve(ctx(t), 1, 1); err != nil || !granted {
		t.Fatalf("reserve: granted=%v err=%v", granted, err)
	}
	if n, stacks := lifecycleGoroutines(); n < 2 || !strings.Contains(stacks, "(*Lifecycle).Every") {
		t.Fatalf("%d goroutines in lifecycle.go while serving, want the expiry loop and the handler among them:\n%s", n, stacks)
	}
	s.Close()
	returned(t, "HandleConn", done)
	// A loop has called Done once Close returns, but may not have exited.
	deadline := time.Now().Add(time.Second)
	for {
		n, stacks := lifecycleGoroutines()
		if n <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines in lifecycle.go after Close, %d before the server:\n%s", n, base, stacks)
		}
		runtime.Gosched()
	}
}
