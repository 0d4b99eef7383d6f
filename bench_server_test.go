// Serving-plane throughput benchmarks: end-to-end reserve→grant→teardown
// round trips against a live resv.Server, over net.Pipe (no syscalls; pure
// admission-plane cost) and TCP loopback (the deployment transport), at
// 1/8/64 concurrent clients. The pipelined variants keep a window of
// requests in flight per connection, so the server's batched frame I/O can
// coalesce many grants into one write. `make bench-diff` gates these
// alongside the simulator benchmarks: ns/op within tolerance, allocs/op
// never up.
package beqos_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// benchServer returns a flow-count admission server with kmax = capacity
// (rigid unit demand), no TTL.
func benchServer(b testing.TB, capacity float64) *resv.Server {
	b.Helper()
	r, err := utility.NewRigid(1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := resv.NewServer(capacity, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// benchDialer returns a dial function for the named transport ("pipe" or
// "tcp") connected to s.
func benchDialer(b *testing.B, s *resv.Server, transport string) func() net.Conn {
	b.Helper()
	switch transport {
	case "pipe":
		return func() net.Conn {
			cEnd, sEnd := net.Pipe()
			go s.HandleConn(sEnd)
			return cEnd
		}
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = ln.Close() })
		go func() { _ = s.Serve(ln) }()
		return func() net.Conn {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			return nc
		}
	default:
		b.Fatalf("unknown transport %q", transport)
		return nil
	}
}

// BenchmarkServerThroughput measures the admission server's request
// throughput. One op is a full reserve→grant plus teardown→ok cycle
// (two protocol round trips), so requests/sec = 2e9 / (ns/op).
func BenchmarkServerThroughput(b *testing.B) {
	for _, transport := range []string{"pipe", "tcp"} {
		for _, clients := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/c%d", transport, clients), func(b *testing.B) {
				benchSyncClients(b, transport, clients)
			})
		}
		for _, clients := range []int{8, 64} {
			clients := clients
			b.Run(fmt.Sprintf("%s/c%d-pipelined", transport, clients), func(b *testing.B) {
				benchPipelinedClients(b, transport, clients, 32)
			})
		}
	}
}

// benchSyncClients drives `clients` connections, each looping synchronous
// reserve/teardown round trips on its own flow ID.
func benchSyncClients(b *testing.B, transport string, clients int) {
	s := benchServer(b, float64(clients))
	dial := benchDialer(b, s, transport)
	cls := make([]*resv.Client, clients)
	for i := range cls {
		cls[i] = resv.NewClient(dial())
		defer cls[i].Close()
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i, cl := range cls {
		n := b.N / clients
		if i == 0 {
			n += b.N % clients
		}
		wg.Add(1)
		go func(cl *resv.Client, id uint64, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				ok, _, err := cl.Reserve(ctx, id, 1)
				if err != nil || !ok {
					b.Errorf("reserve flow %d: ok=%v err=%v", id, ok, err)
					return
				}
				if err := cl.Teardown(ctx, id); err != nil {
					b.Errorf("teardown flow %d: %v", id, err)
					return
				}
			}
		}(cl, uint64(i+1), n)
	}
	wg.Wait()
	b.StopTimer()
	reportReqRate(b)
}

// benchPipelinedClients keeps `depth` requests in flight per connection:
// each iteration writes a window of reserve frames back to back, collects
// the grants, then does the same for teardowns. A concurrent reader drains
// replies so the pipeline never stalls on an unbuffered transport.
func benchPipelinedClients(b *testing.B, transport string, clients, depth int) {
	s := benchServer(b, float64(clients*depth))
	dial := benchDialer(b, s, transport)
	conns := make([]net.Conn, clients)
	for i := range conns {
		conns[i] = dial()
		defer conns[i].Close()
	}
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i, nc := range conns {
		n := b.N / clients
		if i == 0 {
			n += b.N % clients
		}
		iters := (n + depth - 1) / depth
		wg.Add(1)
		go func(nc net.Conn, base uint64, iters int) {
			defer wg.Done()
			// One persistent reader per connection: a goroutine spawned per
			// window would dominate the sub-µs per-op cost and add
			// scheduling noise. The reader drains one window's replies per
			// request on the expect channel.
			expect := make(chan resv.MsgType)
			done := make(chan error)
			go func() {
				rbuf := make([]byte, depth*resv.FrameSize)
				for want := range expect {
					if _, err := io.ReadFull(nc, rbuf); err != nil {
						done <- err
						return
					}
					var err error
					for k := 0; k < depth; k++ {
						f, derr := resv.DecodeFrame(rbuf[k*resv.FrameSize : (k+1)*resv.FrameSize])
						if derr != nil {
							err = derr
							break
						}
						if f.Type != want {
							err = fmt.Errorf("reply %d: got %s, want %s", k, f.Type, want)
							break
						}
					}
					done <- err
				}
			}()
			defer close(expect)
			wbuf := make([]byte, 0, depth*resv.FrameSize)
			window := func(typ resv.MsgType, want resv.MsgType) bool {
				wbuf = wbuf[:0]
				for k := 0; k < depth; k++ {
					wbuf = resv.AppendFrame(wbuf, resv.Frame{Type: typ, FlowID: base + uint64(k), Value: 1})
				}
				expect <- want
				if _, err := nc.Write(wbuf); err != nil {
					b.Errorf("write window: %v", err)
					return false
				}
				if err := <-done; err != nil {
					b.Errorf("read window: %v", err)
					return false
				}
				return true
			}
			for j := 0; j < iters; j++ {
				if !window(resv.MsgRequest, resv.MsgGrant) {
					return
				}
				if !window(resv.MsgTeardown, resv.MsgTeardownOK) {
					return
				}
			}
		}(nc, uint64(i)<<32|1, iters)
	}
	wg.Wait()
	b.StopTimer()
	reportReqRate(b)
}

// reportReqRate adds a requests-per-second metric (2 RPCs per op).
func reportReqRate(b *testing.B) {
	reportReqRateN(b, 2)
}

// reportReqRateN adds a requests-per-second metric for benchmarks whose op
// carries perOp requests (batched ops move more than one reserve+teardown).
func reportReqRateN(b *testing.B, perOp int) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(perOp*b.N)/b.Elapsed().Seconds(), "req/s")
	}
}

// BenchmarkServerHighConcurrency is the million-connection headline: it
// parks a large population of live reservations on flow-multiplexed
// connections (100k by default; BEQOS_BENCH_1M=1 raises it to 1M), then
// measures reserve→grant→teardown→ok churn through the standing state —
// every admission walking shard tables sized by the autotuner, every reply
// routed through the mux demultiplexer. One op is one churn cycle; the
// steady-state path must not allocate on either side of the pipe.
func BenchmarkServerHighConcurrency(b *testing.B) {
	standing := 100_000
	if os.Getenv("BEQOS_BENCH_1M") != "" {
		standing = 1_000_000
	}
	const churners = 8
	s := benchServer(b, float64(standing+churners))
	dial := benchDialer(b, s, "pipe")

	// Establish the standing population across a small pool of mux
	// connections, in parallel — setup, not measured.
	pool := 4
	muxes := make([]*resv.Client, pool)
	for i := range muxes {
		muxes[i] = resv.NewClient(dial())
		defer muxes[i].Close()
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	per := standing / pool
	for i, m := range muxes {
		lo := uint64(i*per) + 1
		hi := lo + uint64(per)
		if i == pool-1 {
			hi = uint64(standing) + 1
		}
		wg.Add(1)
		go func(m *resv.Client, lo, hi uint64) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				ok, _, err := m.Reserve(ctx, id, 1)
				if err != nil || !ok {
					b.Errorf("standing reserve %d: ok=%v err=%v", id, ok, err)
					return
				}
			}
		}(m, lo, hi)
	}
	wg.Wait()
	if b.Failed() {
		return
	}
	if got := s.Active(); got != standing {
		b.Fatalf("standing population = %d, want %d", got, standing)
	}

	// Churn through the standing state: each worker cycles its own flow ID
	// above the population on its own mux connection.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < churners; i++ {
		n := b.N / churners
		if i == 0 {
			n += b.N % churners
		}
		id := uint64(standing + i + 1)
		m := muxes[i%pool]
		wg.Add(1)
		go func(m *resv.Client, id uint64, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				ok, _, err := m.Reserve(ctx, id, 1)
				if err != nil || !ok {
					b.Errorf("churn reserve %d: ok=%v err=%v", id, ok, err)
					return
				}
				if err := m.Teardown(ctx, id); err != nil {
					b.Errorf("churn teardown %d: %v", id, err)
					return
				}
			}
		}(m, id, n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(standing), "flows")
	reportReqRate(b)
}

// BenchmarkUDPThroughput measures the datagram transport end to end over
// loopback sockets: one op is a reserve→grant plus teardown→ok cycle, each
// round trip one datagram out and one back through the reader pool.
func BenchmarkUDPThroughput(b *testing.B) {
	for _, clients := range []int{1, 8} {
		clients := clients
		b.Run(fmt.Sprintf("c%d", clients), func(b *testing.B) {
			s := benchServer(b, float64(clients))
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer pc.Close()
			go func() { _ = s.ServePacket(pc) }()
			cls := make([]*resv.Client, clients)
			for i := range cls {
				nc, err := net.Dial("udp", pc.LocalAddr().String())
				if err != nil {
					b.Fatal(err)
				}
				cls[i] = resv.NewUDPClient(nc, resv.UDPConfig{Timeout: time.Second})
				defer cls[i].Close()
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i, cl := range cls {
				n := b.N / clients
				if i == 0 {
					n += b.N % clients
				}
				wg.Add(1)
				go func(cl *resv.Client, id uint64, n int) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						ok, _, err := cl.Reserve(ctx, id, 1)
						if err != nil || !ok {
							b.Errorf("reserve flow %d: ok=%v err=%v", id, ok, err)
							return
						}
						if err := cl.Teardown(ctx, id); err != nil {
							b.Errorf("teardown flow %d: %v", id, err)
							return
						}
					}
				}(cl, uint64(i+1), n)
			}
			wg.Wait()
			b.StopTimer()
			reportReqRate(b)
		})
	}
}
