// Cluster-plane benchmarks: distributed path admission throughput across
// in-process node fleets, the zero-alloc local-admit hot path, and the
// forwarded-hop path over the peer's stream client. One op is a full path
// reserve→grant plus teardown→ok cycle (two protocol round trips), so
// requests/sec = 2e9 / (ns/op), aggregated across every entry node.
// `make bench-diff` gates BenchmarkClusterThroughput with an absolute
// req/s floor alongside the serving-plane benchmarks.
package beqos_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/cluster"
	"beqos/internal/resv"
)

// benchClusterStart assembles and starts an in-process cluster over spec.
// Gossip ticks are disabled: these benchmarks measure the admission and
// transport paths, not anti-entropy scheduling.
func benchClusterStart(b *testing.B, spec string) *cluster.Cluster {
	b.Helper()
	topo, err := cluster.ParseTopology(spec)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Topology: topo, AntiEntropy: -1})
	if err != nil {
		b.Fatal(err)
	}
	cl.Start()
	b.Cleanup(cl.Close)
	return cl
}

// clusterChurn runs workersPer Local handles per node, each cycling
// reserve→teardown on its node's own pair, until every op of b.N is spent.
// Handles and goroutines are set up outside the timed region (start-gate),
// so the measurement sees only the admission path.
func clusterChurn(b *testing.B, cl *cluster.Cluster, workersPer int) {
	nodes := cl.Len()
	type worker struct {
		l    *cluster.Local
		pair int
		seq  uint64
	}
	var workers []worker
	for ni := 0; ni < nodes; ni++ {
		for w := 0; w < workersPer; w++ {
			workers = append(workers, worker{l: cl.Node(ni).NewLocal(), pair: ni, seq: uint64(w + 1)})
		}
	}
	// Warm every free list and map bucket before the timer.
	for _, w := range workers {
		for i := 0; i < 4; i++ {
			if granted, _, err := w.l.Reserve(w.pair, w.seq, 1); err != nil || !granted {
				b.Fatalf("warmup reserve: granted=%v err=%v", granted, err)
			}
			if err := w.l.Teardown(w.pair, w.seq); err != nil {
				b.Fatal(err)
			}
		}
	}
	iters := b.N/len(workers) + 1
	start := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				granted, _, err := w.l.Reserve(w.pair, w.seq, 1)
				if err != nil || !granted {
					failed.Store(true)
					return
				}
				if err := w.l.Teardown(w.pair, w.seq); err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
	if failed.Load() {
		b.Fatal("a churn worker failed")
	}
	reportReqRate(b)
}

// BenchmarkClusterThroughput is the scale-out headline: aggregate path
// admission churn across every entry node of an N-node ring, each node
// placing on its own locally-owned link. n1 is the single-node baseline
// the N=4 aggregate is judged against (on multi-core hosts N=4 rides N
// independent links and admission planes).
func BenchmarkClusterThroughput(b *testing.B) {
	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("n%d", nodes), func(b *testing.B) {
			cl := benchClusterStart(b, cluster.Ring(nodes, 1<<20, false))
			clusterChurn(b, cl, 2)
		})
	}
}

// BenchmarkClusterLocalAdmit pins the local-admit hot path: one entry
// node, one locally-owned link, serial reserve→teardown. Must stay at
// 0 allocs/op — claims and path-flow records ride free lists.
func BenchmarkClusterLocalAdmit(b *testing.B) {
	cl := benchClusterStart(b, "node a\nlink l a 1048576\npath p l\npair x a a p\n")
	l := cl.Node(0).NewLocal()
	for i := 0; i < 4; i++ {
		if granted, _, err := l.Reserve(0, 1, 1); err != nil || !granted {
			b.Fatalf("warmup: granted=%v err=%v", granted, err)
		}
		if err := l.Teardown(0, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		granted, _, err := l.Reserve(0, 1, 1)
		if err != nil || !granted {
			b.Fatalf("reserve: granted=%v err=%v", granted, err)
		}
		if err := l.Teardown(0, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportReqRate(b)
}

// BenchmarkClusterForward pins the forwarded-hop path: the entry node owns
// nothing, so every reserve and teardown crosses the peer's stream client
// to the link's owner and back, flushed by the caller itself. Must stay at
// 0 allocs/op on the entry side — hop ops and client calls are recycled.
func BenchmarkClusterForward(b *testing.B) {
	cl := benchClusterStart(b, "node entry\nnode owner\nlink l owner 1048576\npath p l\npair x entry owner p\n")
	l := cl.Node(0).NewLocal()
	for i := 0; i < 4; i++ {
		if granted, _, err := l.Reserve(0, 1, 1); err != nil || !granted {
			b.Fatalf("warmup: granted=%v err=%v", granted, err)
		}
		if err := l.Teardown(0, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		granted, _, err := l.Reserve(0, 1, 1)
		if err != nil || !granted {
			b.Fatalf("reserve: granted=%v err=%v", granted, err)
		}
		if err := l.Teardown(0, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportReqRate(b)
}

// BenchmarkClusterForwardBatched is the batched counterpart of
// BenchmarkClusterForward: the same all-remote topology, but each op moves
// a full resv.MaxBatch of flows through one batched dispatch — the hop
// claims coalesce into multi-reserve frames on the peer transport, so 64
// flows pay a handful of RPC round trips instead of 64. One op is
// 64 reserves + 64 teardowns (128 requests); `make bench-diff` holds the
// req/s metric to an absolute floor ≥3x the single-flow forward path.
// Must stay at 0 allocs/op on the entry side.
func BenchmarkClusterForwardBatched(b *testing.B) {
	cl := benchClusterStart(b, "node entry\nnode owner\nlink l owner 1048576\npath p l\npair x entry owner p\n")
	l := cl.Node(0).NewLocal()
	seqs := make([]uint64, resv.MaxBatch)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	for i := 0; i < 4; i++ {
		v, _, err := l.ReserveBatch(0, seqs, 1)
		if err != nil || v.Count() != len(seqs) {
			b.Fatalf("warmup batch reserve: granted %d/%d err=%v", v.Count(), len(seqs), err)
		}
		tv, err := l.TeardownBatch(0, seqs)
		if err != nil || tv.Count() != len(seqs) {
			b.Fatalf("warmup batch teardown: ok %d/%d err=%v", tv.Count(), len(seqs), err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := l.ReserveBatch(0, seqs, 1)
		if err != nil || v.Count() != len(seqs) {
			b.Fatalf("batch reserve: granted %d/%d err=%v", v.Count(), len(seqs), err)
		}
		tv, err := l.TeardownBatch(0, seqs)
		if err != nil || tv.Count() != len(seqs) {
			b.Fatalf("batch teardown: ok %d/%d err=%v", tv.Count(), len(seqs), err)
		}
	}
	b.StopTimer()
	reportReqRateN(b, 2*len(seqs))
}

// TestClusterAggregateScaling is the scale-out acceptance check: with four
// real cores, a 4-node cluster's aggregate admission throughput must reach
// at least 3× the single-node baseline at equal offered concurrency. The
// measurement needs unshared cores and native speed, so it skips on small
// hosts, under -short, and under the race detector.
func TestClusterAggregateScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("scaling measurement skipped under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling measurement needs ≥4 CPUs, have %d", runtime.NumCPU())
	}
	measure := func(nodes, workersPer int) float64 {
		topo, err := cluster.ParseTopology(cluster.Ring(nodes, 1<<20, false))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{Topology: topo, AntiEntropy: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Start()
		const d = 300 * time.Millisecond
		var ops atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for ni := 0; ni < nodes; ni++ {
			for w := 0; w < workersPer; w++ {
				wg.Add(1)
				go func(ni int, seq uint64) {
					defer wg.Done()
					l := cl.Node(ni).NewLocal()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if granted, _, err := l.Reserve(ni, seq, 1); err != nil || !granted {
							t.Errorf("reserve: granted=%v err=%v", granted, err)
							return
						}
						if err := l.Teardown(ni, seq); err != nil {
							t.Error(err)
							return
						}
						ops.Add(1)
					}
				}(ni, uint64(w+1))
			}
		}
		time.Sleep(d)
		close(stop)
		wg.Wait()
		return float64(ops.Load()) / d.Seconds()
	}
	// Equal offered concurrency: 4 workers total in both shapes.
	single := measure(1, 4)
	quad := measure(4, 1)
	t.Logf("aggregate churn: n1 = %.0f ops/s, n4 = %.0f ops/s (%.2fx)", single, quad, quad/single)
	if quad < 3*single {
		t.Errorf("4-node aggregate %.0f ops/s is below 3x the single-node %.0f ops/s", quad, single)
	}
}
