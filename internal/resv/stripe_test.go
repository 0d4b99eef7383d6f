package resv

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"beqos/internal/utility"
)

// TestConcurrentReservesNeverOverAdmit races M clients at the kmax
// boundary: exactly kmax of their simultaneous requests may win, the rest
// must be denied, and the books must balance afterwards. This is the
// regression test for the CAS-bounded admission claim — a read-then-lock
// design would over-admit here.
func TestConcurrentReservesNeverOverAdmit(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 8
	const clients = 64
	s, err := NewServer(kmax, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 20; round++ {
		cls := make([]*Client, clients)
		for i := range cls {
			cEnd, sEnd := net.Pipe()
			go s.HandleConn(sEnd)
			cls[i] = NewClient(cEnd)
		}
		ctx := context.Background()
		var granted atomic.Int64
		var start, done sync.WaitGroup
		start.Add(1)
		for i, cl := range cls {
			done.Add(1)
			go func(cl *Client, id uint64) {
				defer done.Done()
				start.Wait() // maximize the race at the boundary
				ok, share, err := cl.Reserve(ctx, id, 1)
				if err != nil {
					t.Errorf("reserve flow %d: %v", id, err)
					return
				}
				if ok {
					granted.Add(1)
					if share != float64(kmax)/float64(kmax) {
						t.Errorf("flow %d: share %g, want C/kmax = 1", id, share)
					}
				}
			}(cl, uint64(round*clients+i+1))
		}
		start.Done()
		done.Wait()
		if g := granted.Load(); g != kmax {
			t.Fatalf("round %d: granted %d of %d simultaneous requests, want exactly kmax = %d", round, g, clients, kmax)
		}
		if a := s.Active(); a != kmax {
			t.Fatalf("round %d: active = %d, want %d", round, a, kmax)
		}
		for _, cl := range cls {
			cl.Close()
		}
		waitActive(t, s, 0) // connection-scoped release drains everything
	}
}

// TestStatsLockFreeUnderLoad hammers the lock-free observers
// (Active/Allocated and the Stats RPC — the loadgen probe's sample path)
// concurrently with reserve/teardown churn. Run under -race this checks
// the atomics carry all cross-goroutine state; invariants check the
// counters never escape [0, kmax].
func TestStatsLockFreeUnderLoad(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 16
	s, err := NewServer(kmax, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churners: reserve/teardown loops over disjoint flow IDs.
	for w := 0; w < 8; w++ {
		cEnd, sEnd := net.Pipe()
		go s.HandleConn(sEnd)
		cl := NewClient(cEnd)
		wg.Add(1)
		go func(cl *Client, id uint64) {
			defer wg.Done()
			defer cl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok, _, err := cl.Reserve(ctx, id, 1)
				if err != nil {
					t.Errorf("reserve flow %d: %v", id, err)
					return
				}
				if ok {
					if err := cl.Teardown(ctx, id); err != nil {
						t.Errorf("teardown flow %d: %v", id, err)
						return
					}
				}
			}
		}(cl, uint64(w+1))
	}
	// Observers: direct accessor hammering plus the Stats RPC.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if a := s.Active(); a < 0 || a > kmax {
					t.Errorf("Active() = %d outside [0, %d]", a, kmax)
					return
				}
				if al := s.Allocated(); al < 0 || al > kmax {
					t.Errorf("Allocated() = %g outside [0, %d]", al, kmax)
					return
				}
			}
		}()
	}
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	statsCl := NewClient(cEnd)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer statsCl.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			k, active, err := statsCl.Stats(ctx)
			if err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			if k != kmax || active < 0 || active > kmax {
				t.Errorf("stats: kmax=%d active=%d, want kmax=%d active in [0,%d]", k, active, kmax, kmax)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		_ = s.Active()
	}
	close(stop)
	wg.Wait()
}

// TestShardDistribution checks the flow-ID hash actually stripes:
// sequential IDs — the worst case for a naive id%N shard map — must spread
// across every shard the server chose at startup.
func TestShardDistribution(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(8, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nshards := s.Shards()
	ids := uint64(64 * nshards)
	seen := make(map[*shard]int)
	for id := uint64(1); id <= ids; id++ {
		seen[s.shardFor(id)]++
	}
	if len(seen) != nshards {
		t.Fatalf("sequential IDs hit %d of %d shards", len(seen), nshards)
	}
	for sh, n := range seen {
		if n > 4*int(ids)/nshards {
			t.Errorf("shard %p got %d of %d IDs — badly skewed", sh, n, ids)
		}
	}
}

// TestShardAutotune checks the GOMAXPROCS-driven shard sizing: the count
// must be a power of two (the shift-based shardFor depends on it), one at
// one processor, never below the minShards floor from two on, and the
// server must report the runtime-chosen count through Shards().
func TestShardAutotune(t *testing.T) {
	cases := []struct {
		procs, want int
	}{
		{1, 1}, {2, 16}, {3, 32}, {4, 32}, {8, 64}, {16, 128}, {100, 1024}, {200, 1024},
	}
	for _, tc := range cases {
		if got := shardCountFor(tc.procs); got != tc.want {
			t.Errorf("shardCountFor(%d) = %d, want %d", tc.procs, got, tc.want)
		}
	}
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(8, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Shards()
	if n != shardCountFor(runtime.GOMAXPROCS(0)) {
		t.Errorf("Shards() = %d, want shardCountFor(GOMAXPROCS) = %d", n, shardCountFor(runtime.GOMAXPROCS(0)))
	}
	if n&(n-1) != 0 || (n < minShards && n != 1) || n > maxShards {
		t.Errorf("Shards() = %d: want 1 or a power of two in [%d, %d]", n, minShards, maxShards)
	}
}
