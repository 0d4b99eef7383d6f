package resv

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"beqos/internal/utility"
)

// startPair wires a client to an in-process server over net.Pipe.
func startPair(t *testing.T, s *Server) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	c := NewClient(cEnd)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestServerMetricsCounters drives the protocol surface through a real
// connection and checks the always-on instrument set: the counters must
// agree exactly with the outcomes the client observed. Counter flushes are
// batch-granular but a flush always precedes the batch's reply write, so by
// the time a reply arrives its outcome is visible in the metrics.
func TestServerMetricsCounters(t *testing.T) {
	util := utility.NewAdaptive()
	s, err := NewServer(2, util) // kmax = 2
	if err != nil {
		t.Fatal(err)
	}
	c := startPair(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	for id := uint64(1); id <= 2; id++ {
		if ok, _, err := c.Reserve(ctx, id, 1); err != nil || !ok {
			t.Fatalf("reserve %d: ok=%v err=%v", id, ok, err)
		}
	}
	if ok, _, err := c.Reserve(ctx, 3, 1); err != nil || ok {
		t.Fatalf("reserve beyond kmax: ok=%v err=%v", ok, err)
	}
	if _, err := c.Refresh(ctx, 1); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if err := c.Teardown(ctx, 1); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if _, _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats: %v", err)
	}
	// A duplicate flow ID must be rejected with an error reply.
	if _, _, err := c.Reserve(ctx, 2, 1); err == nil {
		t.Fatal("duplicate reserve should error")
	}

	m := s.Metrics()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"reserves", m.Reserves.Load(), 4},
		{"grants", m.Grants.Load(), 2},
		{"denials", m.Denials.Load(), 1},
		{"teardowns", m.Teardowns.Load(), 1},
		{"refreshes", m.Refreshes.Load(), 1},
		{"stats", m.Stats.Load(), 1},
		{"errors", m.Errors.Load(), 1},
		{"expiries", m.Expiries.Load(), 0},
		{"releases", m.Releases.Load(), 0},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if got := m.Connections.Load(); got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
	bf := m.BatchFrames.Snapshot()
	if bf.Count == 0 {
		t.Error("batch-frames histogram is empty")
	}
	rq := m.RequestNS.Snapshot()
	// One histogram sample per dispatched frame: 4 reserves (including the
	// duplicate) + refresh + teardown + stats = 7.
	if rq.Count != 7 {
		t.Errorf("request-ns samples = %d, want 7", rq.Count)
	}

	// The connection-scoped release path: drop the client with flow 2 live.
	_ = c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.Releases.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection-scoped release was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.Releases.Load(); got != 1 {
		t.Errorf("releases = %d, want 1", got)
	}
}

// TestServerMetricsExpiry checks the soft-state expiry counter against a
// TTL server with a stalled client.
func TestServerMetricsExpiry(t *testing.T) {
	util := utility.NewAdaptive()
	s, err := NewServerTTL(4, util, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := startPair(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if ok, _, err := c.Reserve(ctx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Expiries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expiry was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Active(); got != 0 {
		t.Errorf("active = %d after expiry, want 0", got)
	}
}

// TestTraceHookEvents pins the trace hook's event stream for a scripted
// request sequence: every admission-path decision must surface exactly
// once, in order, with its kind-specific payload.
func TestTraceHookEvents(t *testing.T) {
	util := utility.NewAdaptive()
	s, err := NewServer(2, util) // kmax = 2
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []TraceEvent
	s.Trace = func(ev TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	c := startPair(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if ok, _, err := c.Reserve(ctx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	// Duplicate with free capacity: the claim succeeds but install finds
	// the ID taken, so the slot rolls back and an error reply goes out.
	if _, _, err := c.Reserve(ctx, 1, 1); err == nil {
		t.Fatal("duplicate reserve should error")
	}
	if ok, _, err := c.Reserve(ctx, 2, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	if ok, _, err := c.Reserve(ctx, 3, 1); err != nil || ok {
		t.Fatalf("reserve at full link: ok=%v err=%v", ok, err)
	}
	if err := c.Teardown(ctx, 1); err != nil {
		t.Fatalf("teardown: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	wantKinds := []TraceKind{TraceGrant, TraceError, TraceGrant, TraceDeny, TraceTeardown}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d trace events %v, want %d", len(events), events, len(wantKinds))
	}
	for i, want := range wantKinds {
		if events[i].Kind != want {
			t.Errorf("event %d kind = %s, want %s", i, events[i].Kind, want)
		}
	}
	if g := events[0]; g.FlowID != 1 || g.Value != 1 || g.Active != 1 {
		t.Errorf("grant event = %+v, want flow 1, share 1, active 1", g)
	}
	if e := events[1]; e.FlowID != 1 || e.Value != float64(ErrCodeDuplicateFlow) {
		t.Errorf("error event = %+v, want flow 1 with code %d", e, ErrCodeDuplicateFlow)
	}
	if d := events[3]; d.FlowID != 3 || d.Active != 2 {
		t.Errorf("deny event = %+v, want flow 3 at active 2", d)
	}
	if td := events[4]; td.FlowID != 1 || td.Active != 1 {
		t.Errorf("teardown event = %+v, want flow 1, active 1", td)
	}
}

// TestInstrumentedDispatchZeroAlloc pins the fully instrumented hot path —
// dispatch with metrics tally, trace hook installed, and the per-batch
// flush — at zero allocations per reserve→teardown cycle. This is the
// in-process counterpart of the BenchmarkServerThroughput allocs/op gate.
func TestInstrumentedDispatchZeroAlloc(t *testing.T) {
	util := utility.NewAdaptive()
	s, err := NewServer(8, util)
	if err != nil {
		t.Fatal(err)
	}
	var traced uint64
	s.Trace = func(ev TraceEvent) { traced++ }
	c := &conn{}
	var bs batchStats
	reserve := Frame{Type: MsgRequest, FlowID: 42, Value: 1}
	teardown := Frame{Type: MsgTeardown, FlowID: 42}
	allocs := testing.AllocsPerRun(1000, func() {
		s.dispatch(c, reserve, &bs)
		s.dispatch(c, teardown, &bs)
		s.metrics.flushBatch(&bs, 2, 1500*time.Nanosecond)
	})
	if allocs != 0 {
		t.Errorf("instrumented dispatch allocates %v/op, want 0", allocs)
	}
	if traced == 0 {
		t.Error("trace hook never fired")
	}
}
