package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
)

const (
	// histBuckets covers the full uint64 range with power-of-two buckets:
	// bucket i holds values v with bits.Len64(v) == i, i.e. v ∈ [2^(i−1),
	// 2^i). Geometric buckets with growth factor 2 turn the floating-point
	// log indexing into one BSR instruction — the right trade for a hot
	// path that must not allocate or stall. Relative quantile error is one
	// bucket: ≤ 2×.
	histBuckets = 65

	// histShards stripes the bucket counters so concurrent recorders from
	// different connections do not serialize on one cache line. Shard
	// choice is a per-goroutine cheap random draw; snapshots merge shards.
	histShards     = 4
	histShardMask  = histShards - 1
	cacheLineBytes = 64
)

// histShard is one stripe of a histogram. Each shard carries its own
// sum/max so a record touches exactly one shard; trailing padding keeps
// shards on distinct cache lines. There is deliberately no count field:
// the buckets are the single source of truth for the count, so a
// snapshot's Count always equals the sum of its Buckets — an invariant a
// separate atomic could not guarantee against concurrent recorders.
type histShard struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	_       [cacheLineBytes - (histBuckets*8+2*8)%cacheLineBytes]byte
}

// Histogram is a lock-free streaming histogram over nonnegative integer
// values (typically nanoseconds or batch sizes): constant memory, O(1)
// atomic Record, quantiles with one-bucket (≤ 2×) relative error. The zero
// value is NOT usable on its own — obtain histograms from
// Registry.Histogram (or NewHistogram for unregistered use).
type Histogram struct {
	shards [histShards]histShard
}

// NewHistogram returns an unregistered histogram, for callers that manage
// exposition themselves (e.g. per-run instruments folded into a Result).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its power-of-two bucket.
func bucketOf(v uint64) int { return bits.Len64(v) }

// bucketUpper returns the inclusive upper edge of bucket i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) { h.RecordN(v, 1) }

// RecordN adds n observations of the same value v with one set of atomic
// updates — the batched-I/O hot path records a whole frame batch's
// per-request latency this way, so instrumentation cost is per batch, not
// per frame.
func (h *Histogram) RecordN(v uint64, n uint64) {
	if n == 0 {
		return
	}
	sh := &h.shards[rand.Uint32()&histShardMask]
	sh.buckets[bucketOf(v)].Add(n)
	sh.sum.Add(v * n)
	for {
		old := sh.max.Load()
		if v <= old || sh.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Snapshot merges the shards into one consistent-enough view: each shard
// is read atomically, and counters only grow, so a snapshot taken during
// concurrent recording is bounded below by any earlier snapshot. Count is
// derived from the merged buckets, so Count == sum(Buckets) holds in
// every snapshot, live or quiescent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	for _, n := range s.Buckets {
		s.Count += n
	}
	return s
}

// HistSnapshot is a histogram's merged state at one instant.
type HistSnapshot struct {
	// Buckets[i] counts values v with bits.Len64(v) == i (v < 2^i).
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Mean returns the mean recorded value (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-th quantile (q in [0, 1]): the
// upper edge of the bucket holding that rank, clamped to the observed
// maximum. It returns 0 when the histogram is empty.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if rank <= seen {
			upper := bucketUpper(i)
			if upper > s.Max {
				upper = s.Max
			}
			return upper
		}
	}
	return s.Max
}
