package resv

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"beqos/internal/utility"
)

func newServer(t *testing.T, capacity float64) *Server {
	t.Helper()
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(capacity, r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pipeClient connects a client to the server over an in-memory pipe.
func pipeClient(t *testing.T, s *Server) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	c := NewClient(cEnd)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestNewServerValidation(t *testing.T) {
	r, _ := utility.NewRigid(1)
	if _, err := NewServer(0, r); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewServer(10, nil); err == nil {
		t.Error("nil utility should fail")
	}
	if _, err := NewServer(10, utility.Elastic{}); err == nil {
		t.Error("elastic utility should fail (no finite kmax)")
	}
	if _, err := NewServer(0.5, r); err == nil {
		t.Error("capacity below one flow should fail")
	}
}

func TestReserveGrantDeny(t *testing.T) {
	s := newServer(t, 2) // kmax = 2
	c := pipeClient(t, s)
	cx := ctx(t)

	// Granted shares are the worst-case guarantee C/kmax = 1, regardless
	// of how many flows are active at grant time.
	ok, share, err := c.Reserve(cx, 1, 1)
	if err != nil || !ok {
		t.Fatalf("first reserve: ok=%v err=%v", ok, err)
	}
	if share != 1 {
		t.Errorf("share = %v, want C/kmax = 1", share)
	}
	ok, share, err = c.Reserve(cx, 2, 1)
	if err != nil || !ok {
		t.Fatalf("second reserve: ok=%v err=%v", ok, err)
	}
	if share != 1 {
		t.Errorf("share = %v, want C/kmax = 1", share)
	}
	ok, _, err = c.Reserve(cx, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("third reservation should be denied at kmax = 2")
	}
	if got := s.Active(); got != 2 {
		t.Errorf("active = %d, want 2", got)
	}
}

func TestTeardownFreesCapacity(t *testing.T) {
	s := newServer(t, 1)
	c := pipeClient(t, s)
	cx := ctx(t)

	if ok, _, err := c.Reserve(cx, 10, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	if ok, _, _ := c.Reserve(cx, 11, 1); ok {
		t.Fatal("second reservation should be denied")
	}
	if err := c.Teardown(cx, 10); err != nil {
		t.Fatal(err)
	}
	if ok, _, err := c.Reserve(cx, 11, 1); err != nil || !ok {
		t.Errorf("post-teardown reserve should succeed: %v %v", ok, err)
	}
}

func TestDuplicateFlowRejected(t *testing.T) {
	s := newServer(t, 5)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 7, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	if _, _, err := c.Reserve(cx, 7, 1); err == nil {
		t.Error("duplicate flow ID should error")
	}
}

func TestTeardownUnknownFlow(t *testing.T) {
	s := newServer(t, 5)
	c := pipeClient(t, s)
	if err := c.Teardown(ctx(t), 999); err == nil {
		t.Error("teardown of unknown flow should error")
	}
}

func TestTeardownWrongOwner(t *testing.T) {
	s := newServer(t, 5)
	c1 := pipeClient(t, s)
	c2 := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c1.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	if err := c2.Teardown(cx, 1); err == nil {
		t.Error("teardown by a different connection should error")
	}
}

func TestConnectionDropReleasesReservations(t *testing.T) {
	s := newServer(t, 3)
	c1 := pipeClient(t, s)
	cx := ctx(t)
	for id := uint64(1); id <= 3; id++ {
		if ok, _, err := c1.Reserve(cx, id, 1); err != nil || !ok {
			t.Fatalf("reserve %d: %v %v", id, ok, err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// Soft state: the server releases the dropped connection's flows.
	deadline := time.Now().Add(2 * time.Second)
	for s.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("active = %d after connection drop, want 0", s.Active())
		}
		time.Sleep(time.Millisecond)
	}
	c2 := pipeClient(t, s)
	if ok, _, err := c2.Reserve(cx, 50, 1); err != nil || !ok {
		t.Errorf("capacity should be free again: %v %v", ok, err)
	}
}

// TestConnectionDropRacesExpiry closes connections while the TTL wheels
// expire the same flows: connection release walks the flow list a flow
// at a time, so some of its flows expire between its reading the list
// and taking their shard locks. Every flow must still be released exactly
// once, by the connection or by its TTL, and none may stay held.
func TestConnectionDropRacesExpiry(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	const conns, flows, ttl = 8, 64, 16 * time.Millisecond
	s, err := NewServerTTL(conns*flows, r, ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := pipeClient(t, s)
			for j := 0; j < flows; j++ {
				if ok, _, err := c.Reserve(context.Background(), uint64(i*flows+j+1), 1); err != nil || !ok {
					t.Errorf("reserve: ok=%v err=%v", ok, err)
					return
				}
			}
			// Closes spread across the flows' expiry, so some race it.
			time.Sleep(time.Duration(i) * ttl / 4)
			_ = c.Close()
		}(i)
	}
	wg.Wait()
	m := s.Metrics()
	deadline := time.Now().Add(5 * time.Second)
	for s.Active() != 0 || m.Expiries.Load()+m.Releases.Load() != conns*flows {
		if time.Now().After(deadline) {
			t.Fatalf("active %d, expiries %d + releases %d, want 0 and %d flows each released once",
				s.Active(), m.Expiries.Load(), m.Releases.Load(), conns*flows)
		}
		time.Sleep(time.Millisecond)
	}
	if g := m.Grants.Load(); g != conns*flows {
		t.Fatalf("grants = %d, want %d", g, conns*flows)
	}
	t.Logf("%d flows expired, %d released by connection drops", m.Expiries.Load(), m.Releases.Load())
}

func TestStats(t *testing.T) {
	s := newServer(t, 4)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	kmax, active, err := c.Stats(cx)
	if err != nil {
		t.Fatal(err)
	}
	if kmax != 4 || active != 1 {
		t.Errorf("stats = (%d, %d), want (4, 1)", kmax, active)
	}
}

func TestReserveWithRetryEventuallyGranted(t *testing.T) {
	s := newServer(t, 1)
	holder := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := holder.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("holder reserve: %v %v", ok, err)
	}
	// Free the slot shortly after the retrier starts.
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = holder.Teardown(context.Background(), 1)
	}()
	c := pipeClient(t, s)
	policy := RetryPolicy{MaxAttempts: 50, BaseDelay: 10 * time.Millisecond, Multiplier: 1.2, Jitter: 0.2}
	ok, share, retries, err := c.ReserveWithRetry(cx, 2, 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("retrier should eventually be granted")
	}
	if share <= 0 || retries < 1 {
		t.Errorf("share=%v retries=%d; expected positive share after ≥ 1 retry", share, retries)
	}
}

func TestReserveWithRetryExhausts(t *testing.T) {
	s := newServer(t, 1)
	holder := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := holder.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("holder reserve: %v %v", ok, err)
	}
	c := pipeClient(t, s)
	ok, _, retries, err := c.ReserveWithRetry(cx, 2, 1, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok || retries != 2 {
		t.Errorf("ok=%v retries=%d, want denied after 2 retries", ok, retries)
	}
}

func TestRetryPolicyValidation(t *testing.T) {
	c := pipeClient(t, newServer(t, 1))
	if _, _, _, err := c.ReserveWithRetry(ctx(t), 1, 1, RetryPolicy{MaxAttempts: 0}); err == nil {
		t.Error("MaxAttempts = 0 should fail")
	}
	if _, _, _, err := c.ReserveWithRetry(ctx(t), 1, 1, RetryPolicy{MaxAttempts: 1, Multiplier: 0.5}); err == nil {
		t.Error("Multiplier < 1 should fail")
	}
	if _, _, _, err := c.ReserveWithRetry(ctx(t), 1, 1, RetryPolicy{MaxAttempts: 1, Multiplier: 1, Jitter: 2}); err == nil {
		t.Error("Jitter > 1 should fail")
	}
}

func TestContextCancellation(t *testing.T) {
	s := newServer(t, 1)
	holder := pipeClient(t, s)
	if ok, _, err := holder.Reserve(ctx(t), 1, 1); err != nil || !ok {
		t.Fatalf("holder reserve: %v %v", ok, err)
	}
	c := pipeClient(t, s)
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ok, _, _, err := c.ReserveWithRetry(short, 2, 1, RetryPolicy{MaxAttempts: 1000, BaseDelay: 5 * time.Millisecond, Multiplier: 1})
	if ok {
		t.Error("should not be granted while slot held")
	}
	if err == nil {
		t.Error("expected context deadline error")
	}
}

func TestOverTCP(t *testing.T) {
	s := newServer(t, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = s.Serve(ln) }()

	cx := ctx(t)
	c, err := Dial(cx, "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok, share, err := c.Reserve(cx, 1, 1)
	if err != nil || !ok || share != 1 {
		t.Fatalf("tcp reserve: ok=%v share=%v (want C/kmax = 1) err=%v", ok, share, err)
	}
	if err := c.Teardown(cx, 1); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClientsRespectKMax(t *testing.T) {
	const kmax = 8
	s := newServer(t, kmax)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = s.Serve(ln) }()

	cx := ctx(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := 0
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			c, err := Dial(cx, "tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ok, _, err := c.Reserve(cx, id, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				mu.Lock()
				granted++
				mu.Unlock()
				// Hold the reservation until the test ends.
				time.Sleep(200 * time.Millisecond)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if granted != kmax {
		t.Errorf("granted = %d, want exactly kmax = %d", granted, kmax)
	}
}

func TestInvalidRequestValue(t *testing.T) {
	s := newServer(t, 5)
	c := pipeClient(t, s)
	if _, _, err := c.Reserve(ctx(t), 1, -3); err == nil {
		t.Error("negative bandwidth should error")
	}
}

func newTTLServer(t *testing.T, capacity float64, ttl time.Duration) *Server {
	t.Helper()
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(capacity, r, ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSoftStateExpiry(t *testing.T) {
	s := newTTLServer(t, 2, 60*time.Millisecond)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reservation did not expire; active = %d", s.Active())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRefreshKeepsReservationAlive(t *testing.T) {
	s := newTTLServer(t, 2, 80*time.Millisecond)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	// Refresh several times across multiple TTLs.
	for i := 0; i < 8; i++ {
		time.Sleep(30 * time.Millisecond)
		ttl, err := c.Refresh(cx, 1)
		if err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
		if ttl != 80*time.Millisecond {
			t.Fatalf("reported TTL = %v", ttl)
		}
	}
	if s.Active() != 1 {
		t.Errorf("active = %d after refreshes, want 1", s.Active())
	}
}

func TestRefreshUnknownFlow(t *testing.T) {
	s := newTTLServer(t, 2, time.Second)
	c := pipeClient(t, s)
	if _, err := c.Refresh(ctx(t), 99); err == nil {
		t.Error("refreshing an unknown flow should error")
	}
}

func TestRefreshWrongOwner(t *testing.T) {
	s := newTTLServer(t, 2, time.Second)
	c1 := pipeClient(t, s)
	c2 := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c1.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	if _, err := c2.Refresh(cx, 1); err == nil {
		t.Error("refresh by a non-owner should error")
	}
}

func TestKeepAliveLoop(t *testing.T) {
	s := newTTLServer(t, 2, 80*time.Millisecond)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	kaCtx, cancel := context.WithCancel(cx)
	done := make(chan error, 1)
	go func() { done <- c.KeepAlive(kaCtx, 1, 25*time.Millisecond) }()
	time.Sleep(300 * time.Millisecond)
	if s.Active() != 1 {
		t.Errorf("active = %d during keep-alive, want 1", s.Active())
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("keep-alive returned %v on cancellation", err)
	}
	// Without the keep-alive, the reservation now lapses.
	deadline := time.Now().Add(2 * time.Second)
	for s.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("reservation survived after keep-alive stopped")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestKeepAliveValidatesInterval(t *testing.T) {
	c := pipeClient(t, newServer(t, 1))
	if err := c.KeepAlive(ctx(t), 1, 0); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestNoTTLNeverExpires(t *testing.T) {
	s := newServer(t, 2) // TTL 0
	if s.ttl != 0 {
		t.Fatalf("TTL = %v", s.ttl)
	}
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	// Refresh on a no-TTL server succeeds and reports 0.
	ttl, err := c.Refresh(cx, 1)
	if err != nil || ttl != 0 {
		t.Errorf("refresh on no-TTL server: ttl=%v err=%v", ttl, err)
	}
	time.Sleep(100 * time.Millisecond)
	if s.Active() != 1 {
		t.Errorf("reservation vanished without TTL")
	}
}

func TestNegativeTTLRejected(t *testing.T) {
	r, _ := utility.NewRigid(1)
	if _, err := NewServerTTL(2, r, -time.Second); err == nil {
		t.Error("negative TTL should fail")
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	s := newServer(t, 2)
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	defer cEnd.Close()
	// Write garbage: the server must drop the connection without panicking
	// and other clients must keep working.
	garbage := make([]byte, FrameSize)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	_, _ = cEnd.Write(garbage)
	c2 := pipeClient(t, s)
	if ok, _, err := c2.Reserve(ctx(t), 7, 1); err != nil || !ok {
		t.Errorf("healthy client affected by garbage peer: %v %v", ok, err)
	}
}

func newBandwidthServer(t *testing.T, capacity float64) *Server {
	t.Helper()
	s, err := NewServerBandwidth(capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestBandwidthAdmission(t *testing.T) {
	s := newBandwidthServer(t, 10)
	c := pipeClient(t, s)
	cx := ctx(t)
	// 6 + 3 fit; 2 more does not; 1 more does.
	if ok, rate, err := c.Reserve(cx, 1, 6); err != nil || !ok || rate != 6 {
		t.Fatalf("reserve 6: ok=%v rate=%v err=%v", ok, rate, err)
	}
	if ok, rate, err := c.Reserve(cx, 2, 3); err != nil || !ok || rate != 3 {
		t.Fatalf("reserve 3: ok=%v rate=%v err=%v", ok, rate, err)
	}
	if ok, _, err := c.Reserve(cx, 3, 2); err != nil || ok {
		t.Fatalf("reserve 2 should be denied at 9/10 allocated: ok=%v err=%v", ok, err)
	}
	if ok, _, err := c.Reserve(cx, 4, 1); err != nil || !ok {
		t.Fatalf("reserve 1 should fit exactly: ok=%v err=%v", ok, err)
	}
	if got := s.Allocated(); math.Abs(got-10) > 1e-12 {
		t.Errorf("allocated = %v, want 10", got)
	}
}

func TestBandwidthTeardownReturnsRate(t *testing.T) {
	s := newBandwidthServer(t, 5)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 5); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	if ok, _, _ := c.Reserve(cx, 2, 1); ok {
		t.Fatal("full link should deny")
	}
	if err := c.Teardown(cx, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Allocated(); got != 0 {
		t.Errorf("allocated = %v after teardown", got)
	}
	if ok, _, err := c.Reserve(cx, 2, 4); err != nil || !ok {
		t.Errorf("rate should be free again: %v %v", ok, err)
	}
}

func TestBandwidthConnDropReturnsRate(t *testing.T) {
	s := newBandwidthServer(t, 5)
	c := pipeClient(t, s)
	if ok, _, err := c.Reserve(ctx(t), 1, 4); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	_ = c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.Allocated() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("allocated = %v after drop", s.Allocated())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBandwidthRejectsZeroRate(t *testing.T) {
	s := newBandwidthServer(t, 5)
	c := pipeClient(t, s)
	if _, _, err := c.Reserve(ctx(t), 1, 0); err == nil {
		t.Error("zero-rate request should error in bandwidth mode")
	}
}

func TestBandwidthExpiry(t *testing.T) {
	s, err := NewServerBandwidth(5, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := pipeClient(t, s)
	if ok, _, err := c.Reserve(ctx(t), 1, 5); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Allocated() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rate did not expire; allocated = %v", s.Allocated())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBandwidthServerValidation(t *testing.T) {
	if _, err := NewServerBandwidth(0, 0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewServerBandwidth(5, -time.Second); err == nil {
		t.Error("negative TTL should fail")
	}
}
