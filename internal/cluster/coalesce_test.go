package cluster

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/resv"
)

// stubPeer is a hand-served link owner for one node's coalescer: served by
// a resv.Lifecycle's ServeConn, it grants a claim on an even flow ID, denies one on an
// odd flow ID, and confirms every teardown. With rec set it records each
// request as it came off the wire; holdNext makes it keep one reply back.
type stubPeer struct {
	rec bool

	mu      sync.Mutex
	units   []stubUnit
	arrived chan struct{} // closed once the held request is in
	gate    chan struct{} // the held request's reply waits for this
}

// stubUnit is one request as it came off the wire: a classic frame, or a
// MsgReserveBatch body.
type stubUnit struct {
	batch  bool
	frames []resv.Frame
}

func stubVerdict(f resv.Frame) bool {
	return f.Type == resv.MsgTeardown || f.FlowID%2 == 0
}

func (s *stubPeer) took(batch bool, frames []resv.Frame) {
	s.mu.Lock()
	if s.rec {
		s.units = append(s.units, stubUnit{batch: batch, frames: append([]resv.Frame(nil), frames...)})
	}
	arrived, gate := s.arrived, s.gate
	s.arrived, s.gate = nil, nil
	s.mu.Unlock()
	if gate != nil {
		close(arrived)
		<-gate
	}
}

func (s *stubPeer) Serve(f resv.Frame, _ int64) resv.Frame {
	s.took(false, []resv.Frame{f})
	switch {
	case f.Type == resv.MsgTeardown:
		return resv.Frame{Type: resv.MsgTeardownOK, FlowID: f.FlowID}
	case f.Type == resv.MsgRequest && stubVerdict(f):
		return resv.Frame{Type: resv.MsgGrant, FlowID: f.FlowID, Value: 1}
	case f.Type == resv.MsgRequest:
		return resv.Frame{Type: resv.MsgDeny, FlowID: f.FlowID}
	default:
		return resv.Frame{}
	}
}

func (s *stubPeer) ServeBatch(ops []resv.Frame, _ int64) resv.Frame {
	s.took(true, ops)
	var v resv.BatchVerdict
	for i, f := range ops {
		if stubVerdict(f) {
			v |= 1 << uint(i)
		}
	}
	return resv.Frame{Type: resv.MsgReserveBatchReply, FlowID: uint64(v)}
}

func (s *stubPeer) BadBatch()                 {}
func (s *stubPeer) Served(int, time.Duration) {}

// holdNext keeps back the reply to the next request: arrived is closed once
// that request is in, and release, which the test must call before it
// ends, lets its reply go.
func (s *stubPeer) holdNext() (arrived <-chan struct{}, release func()) {
	a, g := make(chan struct{}), make(chan struct{})
	s.mu.Lock()
	s.arrived, s.gate = a, g
	s.mu.Unlock()
	var once sync.Once
	return a, func() { once.Do(func() { close(g) }) }
}

func (s *stubPeer) recorded() []stubUnit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]stubUnit(nil), s.units...)
}

// stubSpec is a node a whose one path crosses a link owned by node b.
const stubSpec = "node a\nnode b\nlink l b 1048576\npath p l\npair x a b p\n"

// stubbedNode returns node a of stubSpec with its peer transport to b
// served by stub over a net.Pipe, and the coalescer of that peer. Node a
// runs no background loop.
func stubbedNode(t testing.TB, stub *stubPeer) (*Node, *coalescer, net.Conn) {
	t.Helper()
	cl, err := New(Config{Topology: mustTopo(t, stubSpec), AntiEntropy: -1})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.Node(0)
	a, b := net.Pipe()
	n.connectPeer(1, a)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = resv.NewLifecycle().ServeConn(b, stub)
	}()
	t.Cleanup(func() {
		n.Close()
		_ = b.Close()
		<-served
	})
	return n, n.peers[1].Load().co, b
}

func claimFrame(id uint64) resv.Frame {
	return resv.Frame{Type: resv.MsgRequest, FlowID: id, Value: 1}
}

// waitDone fails the test unless wg's goroutines finish within the
// cluster tests' usual deadline.
func waitDone(t *testing.T, what string, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestHopCoalescerLoneOpSingleFrame: an op with no company goes out as one
// classic frame, claim or teardown, with the peer's verdict.
func TestHopCoalescerLoneOpSingleFrame(t *testing.T) {
	stub := &stubPeer{rec: true}
	_, co, _ := stubbedNode(t, stub)
	cases := []struct {
		f    resv.Frame
		want bool
	}{
		{claimFrame(2), true},
		{claimFrame(3), false},
		{resv.Frame{Type: resv.MsgTeardown, FlowID: 2}, true},
	}
	for i, c := range cases {
		op := co.enqueue(c.f)
		op.wait()
		if op.err != nil || op.granted != c.want {
			t.Errorf("%s %d: granted=%v err=%v, want granted=%v", c.f.Type, c.f.FlowID, op.granted, op.err, c.want)
		}
		co.put(op)
		units := stub.recorded()
		if len(units) != i+1 {
			t.Fatalf("after op %d the peer saw %d requests, want %d", i, len(units), i+1)
		}
		if u := units[i]; u.batch || len(u.frames) != 1 || u.frames[0] != c.f {
			t.Errorf("op %d went out as batch=%v %v, want the classic frame %v", i, u.batch, u.frames, c.f)
		}
	}
}

// TestHopCoalescerGroupCommitFIFO: ops queued while a flush is in flight
// ship together on the next flushes, in queue order and at most
// resv.MaxBatch to a body, and each waiter gets its own op's verdict.
func TestHopCoalescerGroupCommitFIFO(t *testing.T) {
	stub := &stubPeer{rec: true}
	_, co, _ := stubbedNode(t, stub)
	arrived, release := stub.holdNext()
	defer release()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		op := co.enqueue(claimFrame(1000))
		op.wait()
		if op.err != nil || !op.granted {
			t.Errorf("held op: granted=%v err=%v", op.granted, op.err)
		}
		co.put(op)
	}()
	<-arrived

	const queued = 100
	var mu sync.Mutex
	var order []uint64
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			mu.Lock()
			op := co.enqueue(claimFrame(id))
			order = append(order, id)
			mu.Unlock()
			op.wait()
			if op.err != nil || op.granted != (id%2 == 0) {
				t.Errorf("op %d: granted=%v err=%v", id, op.granted, op.err)
			}
			co.put(op)
		}(uint64(i))
	}
	waitFor(t, "every op queued behind the held flush", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == queued
	})
	release()
	waitDone(t, "every waiter", &wg)

	units := stub.recorded()
	if len(units) != 3 {
		t.Fatalf("the peer saw %d requests, want 3 (the held op, then bodies of %d and %d)",
			len(units), resv.MaxBatch, queued-resv.MaxBatch)
	}
	if u := units[0]; u.batch || len(u.frames) != 1 || u.frames[0].FlowID != 1000 {
		t.Errorf("held op went out as batch=%v %v", u.batch, u.frames)
	}
	var shipped []uint64
	for i, want := range []int{resv.MaxBatch, queued - resv.MaxBatch} {
		u := units[1+i]
		if !u.batch || len(u.frames) != want {
			t.Errorf("flush %d: batch=%v with %d ops, want a body of %d", i+1, u.batch, len(u.frames), want)
		}
		for _, f := range u.frames {
			shipped = append(shipped, f.FlowID)
		}
	}
	if fmt.Sprint(shipped) != fmt.Sprint(order) {
		t.Errorf("bodies shipped flows %v, queued in order %v", shipped, order)
	}
}

// TestHopCoalescerFailedFlush: when a flush's connection dies, every op it
// carried fails, and so does every op queued behind it; Node.Close returns
// with no waiter left blocked, and the node queues nothing after it.
func TestHopCoalescerFailedFlush(t *testing.T) {
	for _, cut := range []string{"peer hangs up", "node closes"} {
		t.Run(strings.ReplaceAll(cut, " ", "_"), func(t *testing.T) {
			stub := &stubPeer{}
			n, co, peerEnd := stubbedNode(t, stub)
			arrived, release := stub.holdNext()
			defer release()

			var wg sync.WaitGroup
			var failed atomic.Int64
			wait := func(op *hopOp) {
				defer wg.Done()
				op.wait()
				if op.err != nil {
					failed.Add(1)
				} else {
					t.Errorf("op %d: granted=%v with no error after its flush's connection died", op.frame.FlowID, op.granted)
				}
				co.put(op)
			}
			// The held flush carries five ops, and ten more queue behind it.
			const carried, behind = 5, 10
			var held [carried]*hopOp
			for i := range held {
				held[i] = co.enqueue(claimFrame(uint64(100 + i)))
			}
			for _, op := range held {
				wg.Add(1)
				go wait(op)
			}
			<-arrived
			for i := 0; i < behind; i++ {
				wg.Add(1)
				go wait(co.enqueue(claimFrame(uint64(i))))
			}
			switch cut {
			case "peer hangs up":
				_ = peerEnd.Close()
				waitDone(t, "every waiter after the hang-up", &wg)
				n.Close()
			case "node closes":
				n.Close()
				waitDone(t, "every waiter after Close", &wg)
			}
			if got := failed.Load(); got != carried+behind {
				t.Errorf("%d ops failed, want %d", got, carried+behind)
			}
			if op := co.enqueue(claimFrame(7)); op != nil {
				t.Error("a closed node queued a hop")
			}
		})
	}
}

// TestHopCoalescerNoGoroutine: hops flush on their callers' goroutines, so
// once the flushes are done no goroutine runs coalescer code.
func TestHopCoalescerNoGoroutine(t *testing.T) {
	stub := &stubPeer{}
	_, co, _ := stubbedNode(t, stub)
	op := co.enqueue(claimFrame(2))
	op.wait()
	co.put(op)
	var ops [8]*hopOp
	for i := range ops {
		ops[i] = co.enqueue(claimFrame(uint64(10 + 2*i)))
	}
	for _, op := range ops {
		op.wait()
		if op.err != nil || !op.granted {
			t.Errorf("op %d: granted=%v err=%v", op.frame.FlowID, op.granted, op.err)
		}
		co.put(op)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "/coalesce.go:") {
			t.Errorf("a goroutine is in the coalescer after its flushes:\n%s", g)
		}
	}
}

// BenchmarkHopCoalescer is the hop coalescer's layer benchmark: callers
// on one node claim hops on a stub peer that grants them, each waiting for
// its verdict before queueing the next. One op is one hop. With one caller
// every op ships as a classic frame; with eight, the ops queued behind a
// flush ship together. 0 allocs/op.
func BenchmarkHopCoalescer(b *testing.B) {
	for _, callers := range []int{1, 8} {
		b.Run(fmt.Sprintf("c%d", callers), func(b *testing.B) {
			_, co, _ := stubbedNode(b, &stubPeer{})
			hop := func(id uint64) bool {
				op := co.enqueue(claimFrame(id))
				op.wait()
				ok := op.err == nil && op.granted
				co.put(op)
				return ok
			}
			for c := 0; c < callers; c++ {
				if !hop(uint64(2 * c)) {
					b.Fatal("warmup hop failed")
				}
			}
			per := b.N/callers + 1
			start := make(chan struct{})
			var wg sync.WaitGroup
			var failed atomic.Bool
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					<-start
					for i := 0; i < per; i++ {
						if !hop(id) {
							failed.Store(true)
							return
						}
					}
				}(uint64(2 * c))
			}
			b.ReportAllocs()
			b.ResetTimer()
			close(start)
			wg.Wait()
			b.StopTimer()
			if failed.Load() {
				b.Fatal("a hop failed")
			}
		})
	}
}
