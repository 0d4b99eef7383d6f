package resv

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
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

// slowLog is a Logf whose calls take 10 ms. It counts the calls in flight,
// and the calls that start once closed is set.
type slowLog struct {
	calls, inFlight, late atomic.Int32
	closed                atomic.Bool
}

func (l *slowLog) logf(string, ...interface{}) {
	l.calls.Add(1)
	// In flight before the check: a call starting after Close returned is
	// either in flight when the test looks or sees closed.
	l.inFlight.Add(1)
	if l.closed.Load() {
		l.late.Add(1)
	}
	time.Sleep(10 * time.Millisecond)
	l.inFlight.Add(-1)
}

// TestCloseWaitsForConnLog: the line a server logs when a connection's
// serving ends is part of the connection's release, so Close returns only
// once it is written: no Logf call is in flight when Close returns, and
// none starts after.
func TestCloseWaitsForConnLog(t *testing.T) {
	s := newServer(t, 8)
	var log slowLog
	s.Logf = log.logf
	var dones []<-chan struct{}
	for i := 0; i < 4; i++ {
		cEnd, done := serveConn(s)
		defer func() { _ = cEnd.Close() }()
		// A round trip, so the connection is being served when Close runs.
		if _, _, err := NewClient(cEnd).Stats(ctx(t)); err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	s.Close()
	log.closed.Store(true)
	if n := log.inFlight.Load(); n != 0 {
		t.Fatalf("Close returned with %d log calls in flight", n)
	}
	for _, done := range dones {
		returned(t, "HandleConn", done)
	}
	if n := log.late.Load(); n != 0 {
		t.Fatalf("%d log calls started after Close returned", n)
	}
	if n := log.calls.Load(); n < 4 {
		t.Fatalf("%d log calls for 4 connections closed under the server", n)
	}
	if n := s.Metrics().Connections.Load(); n != 0 {
		t.Fatalf("%d connections counted once Close returned", n)
	}
}

// TestServerArmsAtReadInstant: a TTL server arms a reserve's timer one TTL
// after the instant its stream handler is given, the read's, and reads no
// clock of its own for it: the flow outlives an expiry step one tick short
// of that deadline and goes at the step one tick past it.
func TestServerArmsAtReadInstant(t *testing.T) {
	const ttl = time.Second
	s, err := NewServerTTL(8, utility.NewAdaptive(), ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := &streamConn{s: s, c: s.newConn()}
	// Ten TTLs on: an instant the server's own clock does not reach here.
	read := 10 * int64(ttl)
	tick := int64(WheelRes(ttl))
	r := h.Serve(Frame{Type: MsgRequest, FlowID: 1, Value: 1}, read)
	h.Served(1, 0) // the read ends, and its shard lock with it
	if r.Type != MsgGrant {
		t.Fatalf("reserve: reply %+v", r)
	}
	s.expire(read + int64(ttl) - tick)
	if a := s.Active(); a != 1 {
		t.Fatalf("%d flows one tick before the TTL after the read's instant, want 1", a)
	}
	s.expire(read + int64(ttl) + tick)
	if a, e := s.Active(), s.Metrics().Expiries.Load(); a != 0 || e != 1 {
		t.Fatalf("one tick past the TTL after the read's instant: %d flows, %d expiries, want 0 and 1", a, e)
	}
}

// TestServingClockOneSeam: time enters the serving planes through the
// Lifecycle alone. No non-test file of internal/resv or internal/cluster
// but lifecycle.go and client.go (the stream client's deadlines run on its
// net.Conn) refers to the time package's clock or timer functions.
func TestServingClockOneSeam(t *testing.T) {
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "NewTicker": true, "NewTimer": true, "After": true, "AfterFunc": true, "Tick": true, "Sleep": true}
	seam := map[string]bool{"lifecycle.go": true, "client.go": true}
	fset := token.NewFileSet()
	seamReads := 0
	for _, dir := range []string{".", "../cluster"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			pkg := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` {
					pkg = "time"
					if imp.Name != nil {
						pkg = imp.Name.Name
					}
				}
			}
			if pkg == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !clock[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					if seam[filepath.Base(name)] {
						seamReads++
					} else {
						t.Errorf("%s: time.%s outside the lifecycle's clock", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if seamReads == 0 {
		t.Fatal("no clock read found in lifecycle.go or client.go: the scan saw nothing")
	}
}
