// Soft-state table micro-benchmark: the shard install and lookup layer of
// the serving path on its own, with no wire, no policy and no locks. The
// map sub-benchmarks run the same operations on a Go map with a free list
// of records — the layout the table replaced — as the reference.
package beqos_test

import (
	"fmt"
	"testing"
	"time"

	"beqos/internal/policy"
	"beqos/internal/resv"
)

// tableRec is a benchmark record: a slot, as the serving planes' records
// carry one, and a payload the size of a resv entry's owner and rate.
type tableRec struct {
	slot  resv.Slot[*tableRec]
	owner uintptr
	rate  float64
}

// softState is one implementation under test: install a fresh key, remove
// a resident one, look one up.
type softState interface {
	install(key uint64)
	remove(key uint64)
	lookup(key uint64) *tableRec
}

type tableState struct{ t resv.Table[*tableRec] }

func (s *tableState) install(key uint64) {
	r := s.t.Reuse()
	if r == nil {
		r = new(tableRec)
	}
	s.t.Insert(&r.slot, key, r)
}

func (s *tableState) remove(key uint64) { s.t.Remove(&s.t.Get(key).slot) }

func (s *tableState) lookup(key uint64) *tableRec { return s.t.Get(key) }

type mapState struct {
	m    map[uint64]*tableRec
	free []*tableRec
}

func (s *mapState) install(key uint64) {
	var r *tableRec
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else {
		r = new(tableRec)
	}
	s.m[key] = r
}

func (s *mapState) remove(key uint64) {
	s.free = append(s.free, s.m[key])
	delete(s.m, key)
}

func (s *mapState) lookup(key uint64) *tableRec { return s.m[key] }

// tableSink keeps lookups from being optimized away.
var tableSink *tableRec

// BenchmarkSoftStateTable measures the soft-state table at 10^2 keys (in
// cache) and 10^5 keys (beyond it), against a Go map. churn is one op of
// install plus remove: the resident keys are a window of sequential flow
// IDs sliding up by one, as a server's flows arrive and depart. lookup is
// one Get of a resident key, visited in a scattered order. Both are 0
// allocs/op once warm.
func BenchmarkSoftStateTable(b *testing.B) {
	for _, impl := range []string{"table", "map"} {
		for _, n := range []int{100, 100_000} {
			fill := func() softState {
				var s softState = &tableState{}
				if impl == "map" {
					s = &mapState{m: make(map[uint64]*tableRec)}
				}
				for k := 0; k < n; k++ {
					s.install(uint64(k))
				}
				return s
			}
			b.Run(fmt.Sprintf("%s/churn/%d", impl, n), func(b *testing.B) {
				s := fill()
				lo := uint64(0)
				// One lap of warm-up recycles every record once.
				for i := 0; i < n; i++ {
					s.install(lo + uint64(n))
					s.remove(lo)
					lo++
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.install(lo + uint64(n))
					s.remove(lo)
					lo++
				}
			})
			b.Run(fmt.Sprintf("%s/lookup/%d", impl, n), func(b *testing.B) {
				s := fill()
				// A step coprime to n (the prime 7919, reduced mod n) visits
				// every key once per lap, in an order the hardware prefetcher
				// cannot follow.
				step := 7919 % n
				k := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tableSink = s.lookup(uint64(k))
					if k += step; k >= n {
						k -= n
					}
				}
			})
		}
	}
}

// cellSink keeps refresh results from being optimized away.
var cellSink bool

// BenchmarkSoftStateCell measures the admission cell — one lock, the
// table, a TTL wheel, an owner list and a counting policy, as a resv shard
// or a cluster link runs them — with no wire. churn is one Admit of a
// fresh key plus one Release of a resident one, on a window of n
// sequential keys sliding up by one, at 10^2 keys (in cache) and 10^5
// (beyond it). refresh re-arms a live timer to a later deadline. advance
// is the expiry step's cost per record it expires. Every row is 0
// allocs/op once warm.
func BenchmarkSoftStateCell(b *testing.B) {
	const ttl = time.Second
	newCell := func(b *testing.B, bound int) (*resv.Cell[uint64], *resv.Owner[uint64]) {
		pol, err := policy.NewCounting(float64(bound), bound)
		if err != nil {
			b.Fatal(err)
		}
		c := new(resv.Cell[uint64])
		c.Init(pol, ttl, time.Now())
		return c, new(resv.Owner[uint64])
	}
	admit := func(b *testing.B, c *resv.Cell[uint64], o *resv.Owner[uint64], now int64, key uint64) {
		if _, out, _ := c.Admit(now, key, 1, 0, o, key); out != resv.Granted {
			b.Fatalf("admit %d: outcome %d", key, out)
		}
	}
	for _, n := range []int{100, 100_000} {
		b.Run(fmt.Sprintf("churn/%d", n), func(b *testing.B) {
			c, o := newCell(b, n+1)
			for k := 0; k < n; k++ {
				admit(b, c, o, 0, uint64(k))
			}
			lo := uint64(0)
			// One lap of warm-up recycles every record once.
			for i := 0; i < n; i++ {
				admit(b, c, o, 0, lo+uint64(n))
				c.Release(0, lo, o)
				lo++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				admit(b, c, o, 0, lo+uint64(n))
				c.Release(0, lo, o)
				lo++
			}
		})
	}
	b.Run("refresh", func(b *testing.B) {
		const n = 100
		c, o := newCell(b, n)
		for k := 0; k < n; k++ {
			admit(b, c, o, 0, uint64(k))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cellSink = c.Refresh(int64(i+1), uint64(i%n), o)
		}
	})
	b.Run("advance", func(b *testing.B) {
		// Each round admits a batch of records due together, untimed, then
		// times the expiry step that drops them all.
		const batch = 4096
		c, o := newCell(b, batch)
		now := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			b.StopTimer()
			for k := 0; k < batch; k++ {
				admit(b, c, o, now, uint64(k))
			}
			now += 2 * int64(ttl)
			b.StartTimer()
			if m := c.Advance(now, nil); m != batch {
				b.Fatalf("advance expired %d records, want %d", m, batch)
			}
		}
	})
}
