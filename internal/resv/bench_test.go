package resv

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"beqos/internal/obs"
	"beqos/internal/policy"
	"beqos/internal/utility"
)

// benchWindow is the frames one pipelined call carries in perfbench's
// link workload, and so the frames one server read decodes there.
const benchWindow = 32

// BenchmarkCodec is the frame codec's layer benchmark: DecodeFrames of one
// read's window (one op = one window), and AppendFrame of one reply (one
// op = one frame), both into reused buffers at 0 allocs/op.
func BenchmarkCodec(b *testing.B) {
	var wire []byte
	for i := 0; i < benchWindow; i++ {
		wire = AppendFrame(wire, Frame{Type: MsgRequest, FlowID: uint64(i + 1), Value: 1})
	}
	b.Run("decode/window32", func(b *testing.B) {
		frames := make([]Frame, 0, benchWindow)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			frames, _, err = DecodeFrames(frames[:0], wire)
			if err != nil || len(frames) != benchWindow {
				b.Fatalf("decoded %d frames: %v", len(frames), err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/frame")
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, benchWindow*FrameSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(buf) == cap(buf) {
				buf = buf[:0]
			}
			buf = AppendFrame(buf, Frame{Type: MsgGrant, FlowID: uint64(i), Value: 1})
		}
	})
}

// BenchmarkFlushBatch is the per-read observability cost of the serving
// loop: flushBatch folding one window's tallies into the shared
// instruments, alone and with the pair of clock reads that time the read
// (time.Now before the window, time.Since after it). One op is one read
// of benchWindow frames; both rows run at 0 allocs/op.
func BenchmarkFlushBatch(b *testing.B) {
	m := newServerMetrics(obs.New())
	// A churn window: half reserves (most granted), half teardowns.
	window := batchStats{reserves: benchWindow / 2, grants: benchWindow/2 - 2, denials: 2, teardowns: benchWindow / 2}
	b.Run("flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bs := window
			m.flushBatch(&bs, benchWindow, 5*time.Microsecond)
		}
	})
	b.Run("clock+flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			bs := window
			m.flushBatch(&bs, benchWindow, time.Since(start))
		}
	})
}

// BenchmarkBatchCollector is the cost of collecting one MsgReserveBatch
// body in the serving loop: Begin on the header, Add on each of
// benchWindow body frames, and Ops. One op is one body; 0 allocs/op.
func BenchmarkBatchCollector(b *testing.B) {
	body := make([]Frame, benchWindow)
	for i := range body {
		body[i] = Frame{Type: MsgRequest, FlowID: uint64(i + 1), Value: 1}
		if i%2 == 1 {
			body[i].Type = MsgTeardown
		}
	}
	header := BatchHeader(len(body))
	var bc BatchCollector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bc.Begin(header); err != nil {
			b.Fatal(err)
		}
		for j, f := range body {
			if done, err := bc.Add(f); err != nil || done != (j == len(body)-1) {
				b.Fatalf("add %d: done=%v err=%v", j, done, err)
			}
		}
		if len(bc.Ops()) != len(body) {
			b.Fatalf("collected %d ops, want %d", len(bc.Ops()), len(body))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/frame")
}

const (
	// dispatchHeld is the flows the dispatch benchmarks keep held on their
	// connection across the server's shards.
	dispatchHeld = 50
	// benchKmax is the dispatch benchmarks' capacity and bound: the
	// paper's operating point kmax(C) = C = 100 of the adaptive utility,
	// link's.
	benchKmax = 100
)

// benchDispatcher is a stream connection's handler on a counting server
// at kmax = C = benchKmax, striped over nshards shards, holding flows 1
// through held, which it installs in one read.
func benchDispatcher(b *testing.B, nshards, held int) (*Server, *streamConn) {
	pol, err := policy.NewCounting(benchKmax, benchKmax)
	if err != nil {
		b.Fatal(err)
	}
	s, err := buildServer(pol, 0, nshards)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	h := &streamConn{s: s, c: s.newConn()}
	for id := uint64(1); id <= uint64(held); id++ {
		if r := h.Serve(Frame{Type: MsgRequest, FlowID: id, Value: 1}, 0); r.Type != MsgGrant {
			b.Fatalf("reserve flow %d: reply %+v", id, r)
		}
	}
	h.Served(held, 0)
	return s, h
}

// BenchmarkDispatch is the admission layer under the stream serving loop
// for a lone request: a stream connection's handler serving one reserve
// and one teardown as one read, ended by Served (one op), with
// dispatchHeld flows held on the shards a server gets at this GOMAXPROCS
// (reported as shards: 1 at one processor, 16 at two). Each reserve takes
// a policy claim and a shard lock, each teardown the shard lock (held
// over from the reserve when both flows share a shard) and the policy
// release; 0 allocs/op.
func BenchmarkDispatch(b *testing.B) {
	s, h := benchDispatcher(b, shardCountFor(runtime.GOMAXPROCS(0)), dispatchHeld)
	serve := func(f Frame, want MsgType) {
		if r := h.Serve(f, 0); r.Type != want {
			b.Fatalf("%s flow %d: reply %+v, want %s", f.Type, f.FlowID, r, want)
		}
	}
	next := uint64(dispatchHeld + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(Frame{Type: MsgRequest, FlowID: next, Value: 1}, MsgGrant)
		serve(Frame{Type: MsgTeardown, FlowID: next - dispatchHeld}, MsgTeardownOK)
		h.Served(2, 0)
		next++
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Shards()), "shards")
}

// BenchmarkServeRead is one read of link's mix under the stream serving
// loop: a stream connection's handler serving benchWindow frames, each
// reserve of a new flow followed by the teardown of the oldest, with
// kmax−1 flows held so the population stays at kmax or just below, and
// Served ending the read (one op). At one shard the read's flow ops share
// one lock hold; at 16, consecutive ops mostly move the hold to another
// shard. Every op succeeds; 0 allocs/op, reported as ns/frame.
func BenchmarkServeRead(b *testing.B) {
	for _, nshards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards%d", nshards), func(b *testing.B) {
			_, h := benchDispatcher(b, nshards, benchKmax-1)
			oldest, next := uint64(1), uint64(benchKmax)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < benchWindow; j += 2 {
					if r := h.Serve(Frame{Type: MsgRequest, FlowID: next, Value: 1}, 0); r.Type != MsgGrant {
						b.Fatalf("reserve flow %d: reply %+v", next, r)
					}
					if r := h.Serve(Frame{Type: MsgTeardown, FlowID: oldest}, 0); r.Type != MsgTeardownOK {
						b.Fatalf("teardown flow %d: reply %+v", oldest, r)
					}
					next++
					oldest++
				}
				h.Served(benchWindow, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/frame")
		})
	}
}

// BenchmarkDispatchBatch is the batch answer under the stream serving
// loop: a stream connection's handler serving one benchWindow-op body as
// one read, ended by Served (one op), with dispatchHeld flows held. The
// body is twice 8 teardowns of the oldest flows, then 8 reserves of new
// ones, so AdmitRun admits two runs of 8 with one policy claim each. Every
// op succeeds; 0 allocs/op.
func BenchmarkDispatchBatch(b *testing.B) {
	_, h := benchDispatcher(b, shardCountFor(runtime.GOMAXPROCS(0)), dispatchHeld)
	body := make([]Frame, benchWindow)
	oldest, next := uint64(1), uint64(dispatchHeld+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range body {
			if j%16 < 8 {
				body[j] = Frame{Type: MsgTeardown, FlowID: oldest}
				oldest++
			} else {
				body[j] = Frame{Type: MsgRequest, FlowID: next, Value: 1}
				next++
			}
		}
		r := h.ServeBatch(body, 0)
		h.Served(benchWindow+1, 0)
		if r.Type != MsgReserveBatchReply || r.FlowID != 1<<benchWindow-1 || r.Value != 1 {
			b.Fatalf("batch reply %+v, want every op granted at share 1", r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/frame")
}

// BenchmarkClientFanIn is the stream client under fan-in: fanInCallers
// goroutines each looping reserve + teardown (one op) on their own flow,
// sharing one net.Pipe connection or spread over four. On one connection
// the callers' frames coalesce into shared writes and one reader routes
// every reply; 0 allocs/op, client and server together.
func BenchmarkClientFanIn(b *testing.B) {
	const fanInCallers = 8
	for _, conns := range []int{1, 4} {
		b.Run(fmt.Sprintf("pipe/c%d-conn%d", fanInCallers, conns), func(b *testing.B) {
			s, err := NewServer(fanInCallers, utility.NewAdaptive())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			cls := make([]*Client, conns)
			for i := range cls {
				cEnd, sEnd := net.Pipe()
				go s.HandleConn(sEnd)
				cls[i] = NewClient(cEnd)
				defer cls[i].Close()
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < fanInCallers; g++ {
				n := b.N / fanInCallers
				if g == 0 {
					n += b.N % fanInCallers
				}
				wg.Add(1)
				go func(c *Client, id uint64, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if ok, _, err := c.Reserve(ctx, id, 1); err != nil || !ok {
							b.Errorf("reserve flow %d: ok=%v err=%v", id, ok, err)
							return
						}
						if err := c.Teardown(ctx, id); err != nil {
							b.Errorf("teardown flow %d: %v", id, err)
							return
						}
					}
				}(cls[g%conns], uint64(g+1), n)
			}
			wg.Wait()
		})
	}
}
