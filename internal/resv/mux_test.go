package resv

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/utility"
)

// pipeMux connects a client, shared by many goroutines, to the server
// over an in-memory pipe.
func pipeMux(t *testing.T, s *Server) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	m := NewClient(cEnd)
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// TestMuxConcurrentFlows races 128 flows over one connection against
// kmax = 64: exactly 64 must win, every grant must carry C/kmax, and
// tearing the winners down must drain the books — all multiplexed through
// a single stream.
func TestMuxConcurrentFlows(t *testing.T) {
	const kmax = 64
	s := newServer(t, kmax)
	defer s.Close()
	m := pipeMux(t, s)
	c := ctx(t)

	var granted atomic.Int64
	var wonIDs sync.Map
	var wg sync.WaitGroup
	for i := 1; i <= 128; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			ok, share, err := m.Reserve(c, id, 1)
			if err != nil {
				t.Errorf("reserve flow %d: %v", id, err)
				return
			}
			if ok {
				granted.Add(1)
				wonIDs.Store(id, struct{}{})
				if share != 1 { // C/kmax = 64/64
					t.Errorf("flow %d: share %g, want 1", id, share)
				}
			}
		}(uint64(i))
	}
	wg.Wait()
	if g := granted.Load(); g != kmax {
		t.Fatalf("granted %d of 128 flows, want exactly kmax = %d", g, kmax)
	}
	if a := s.Active(); a != kmax {
		t.Fatalf("active = %d, want %d", a, kmax)
	}
	wonIDs.Range(func(k, _ interface{}) bool {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := m.Teardown(c, id); err != nil {
				t.Errorf("teardown flow %d: %v", id, err)
			}
		}(k.(uint64))
		return true
	})
	wg.Wait()
	if a := s.Active(); a != 0 {
		t.Fatalf("active = %d after teardowns, want 0", a)
	}
}

// TestMuxStatsInterleaved interleaves stats requests with reserve/teardown
// churn: the FIFO stats matching must never hand a flow reply to a stats
// waiter or vice versa.
func TestMuxStatsInterleaved(t *testing.T) {
	const kmax = 8
	s := newServer(t, kmax)
	defer s.Close()
	m := pipeMux(t, s)
	c := ctx(t)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ok, _, err := m.Reserve(c, id, 1)
				if err != nil {
					t.Errorf("reserve flow %d: %v", id, err)
					return
				}
				if ok {
					if err := m.Teardown(c, id); err != nil {
						t.Errorf("teardown flow %d: %v", id, err)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k, active, err := m.Stats(c)
				if err != nil {
					t.Errorf("stats: %v", err)
					return
				}
				if k != kmax || active < 0 || active > kmax {
					t.Errorf("stats = (%d, %d), want kmax %d and active in [0, %d]", k, active, kmax, kmax)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMuxDuplicateInFlight rejects a second request for a flow whose first
// is still awaiting its reply — the one-outstanding-op-per-flow rule.
func TestMuxDuplicateInFlight(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer sEnd.Close()
	m := NewClient(cEnd) // nobody serves sEnd: the first request hangs
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := m.Reserve(context.Background(), 1, 1)
		firstDone <- err
	}()
	// Wait until the first request is registered and in the writer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		registered := m.pending.Len() == 1
		m.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err := m.Reserve(ctx(t), 1, 1)
	if err == nil || !strings.Contains(err.Error(), "already has a request in flight") {
		t.Fatalf("second reserve on an in-flight flow: err = %v, want in-flight rejection", err)
	}
	_ = m.Close()
	if err := <-firstDone; err == nil {
		t.Error("first reserve survived Close, want a failure")
	}
}

// TestMuxCloseReleasesFlows checks mux fate-sharing: closing the one
// connection releases every flow it carried, and fails later calls fast.
func TestMuxCloseReleasesFlows(t *testing.T) {
	s := newServer(t, 8)
	defer s.Close()
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	m := NewClient(cEnd)
	c := ctx(t)
	for id := uint64(1); id <= 5; id++ {
		if ok, _, err := m.Reserve(c, id, 1); err != nil || !ok {
			t.Fatalf("reserve flow %d: ok=%v err=%v", id, ok, err)
		}
	}
	if a := s.Active(); a != 5 {
		t.Fatalf("active = %d, want 5", a)
	}
	_ = m.Close()
	waitActive(t, s, 0)
	if _, _, err := m.Reserve(c, 99, 1); err == nil {
		t.Error("reserve on a closed client: err = nil, want failure")
	}
}

// TestMuxReserveWithRetry mirrors the Client retry semantics on the mux
// transport: denials are retried per policy, and freeing the slot between
// attempts lets a retry win.
func TestMuxReserveWithRetry(t *testing.T) {
	s := newServer(t, 1)
	defer s.Close()
	m := pipeMux(t, s)
	c := ctx(t)
	if ok, _, err := m.Reserve(c, 1, 1); err != nil || !ok {
		t.Fatalf("seed reserve: ok=%v err=%v", ok, err)
	}
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 1}
	ok, share, retries, err := m.ReserveWithRetry(c, 2, 1, policy)
	if err != nil || ok || retries != 2 {
		t.Fatalf("retry against a full link = (ok=%v, retries=%d, err=%v), want all 3 attempts denied", ok, retries, err)
	}
	// Free the slot mid-retry: the next attempt must win.
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = m.Teardown(context.Background(), 1)
	}()
	ok, share, retries, err = m.ReserveWithRetry(c, 2, 1, RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, Multiplier: 1})
	if err != nil || !ok {
		t.Fatalf("retry after slot freed: ok=%v err=%v", ok, err)
	}
	if share != 1 || retries < 1 {
		t.Errorf("granted share %g after %d retries, want share 1 after ≥ 1 retry", share, retries)
	}
}

// TestMuxRefresh exercises soft-state renewal through the mux transport
// against a TTL server: refreshed flows live, unrefreshed ones expire.
func TestMuxRefresh(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerTTL(4, r, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := pipeMux(t, s)
	c := ctx(t)
	if ok, _, err := m.Reserve(c, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(60 * time.Millisecond)
		if ttl, err := m.Refresh(c, 1); err != nil || ttl != 120*time.Millisecond {
			t.Fatalf("refresh %d = (%v, %v), want (120ms, nil)", i, ttl, err)
		}
	}
	if a := s.Active(); a != 1 {
		t.Fatalf("active = %d after 5 refreshes across 2.5×TTL, want 1", a)
	}
	waitActive(t, s, 0) // stop refreshing: TTL reclaims the flow
}

// TestMuxCanceledCallDoesNotPoisonFlow: a call whose context has already
// ended fails before its frame is queued, so its flow ID is free at once
// and the server counts exactly one reserve, the retry's.
func TestMuxCanceledCallDoesNotPoisonFlow(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	m := pipeMux(t, s)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.Reserve(cctx, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("reserve with canceled context: err = %v, want %v", err, context.Canceled)
	}
	if ok, _, err := m.Reserve(ctx(t), 1, 1); err != nil || !ok {
		t.Fatalf("reserve after canceled call: ok=%v err=%v", ok, err)
	}
	if a := s.Active(); a != 1 {
		t.Fatalf("active = %d, want 1", a)
	}
	if r := s.Metrics().Reserves.Load(); r != 1 {
		t.Fatalf("server counted %d reserves, want 1: the retry's", r)
	}
}

// TestMuxPost posts one-way frames between request/reply traffic: the
// posted frames must not disturb FlowID/FIFO reply matching, and the
// server's reply to a frame type it does not serve (gossip) must be
// dropped by the next caller's read rather than delivered to any waiter.
// It runs over TCP: Post starts no reader, and on a net.Pipe the server's
// unread reply would block it.
func TestMuxPost(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = s.Serve(ln) }()
	c := ctx(t)
	m, err := Dial(c, "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		queued, err := m.Post(Frame{Type: MsgGossip, FlowID: uint64(i) << 48, Value: float64(i)})
		if err != nil || !queued {
			t.Fatalf("post %d: queued=%v err=%v", i, queued, err)
		}
		ok, _, err := m.Reserve(c, uint64(i+1), 1)
		if err != nil || !ok {
			t.Fatalf("reserve %d interleaved with posts: ok=%v err=%v", i+1, ok, err)
		}
		if err := m.Teardown(c, uint64(i+1)); err != nil {
			t.Fatalf("teardown %d: %v", i+1, err)
		}
		kmax, active, err := m.Stats(c)
		if err != nil || kmax != 4 || active != 0 {
			t.Fatalf("stats after post: kmax=%d active=%d err=%v", kmax, active, err)
		}
	}
	_ = m.Close()
	if _, err := m.Post(Frame{Type: MsgGossip}); err == nil {
		t.Fatal("post on a closed client should fail")
	}
}
