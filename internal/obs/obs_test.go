package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Load(); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
	r.GaugeFunc("gf", "a pulled gauge", func() float64 { return 2.5 })
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "c_total" || snap[1].Name != "g" || snap[2].Name != "gf" {
		t.Fatalf("snapshot = %+v, want c_total, g, gf in registration order", snap)
	}
	if m := snap[2]; m.Value != 2.5 || m.Kind != KindGauge {
		t.Errorf("gauge func snapshot = %+v", m)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := New()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 values of 100ns, 10 of 10000ns, 1 of 1e6 ns.
	h.RecordN(100, 100)
	h.RecordN(10000, 10)
	h.Record(1000000)
	s := h.Snapshot()
	if s.Count != 111 {
		t.Fatalf("count = %d, want 111", s.Count)
	}
	if s.Max != 1000000 {
		t.Errorf("max = %d, want 1000000", s.Max)
	}
	wantSum := uint64(100*100 + 10*10000 + 1000000)
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	if got, want := s.Mean(), float64(wantSum)/111; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", got, want)
	}
	// p50 lands in the bucket holding 100 (upper edge 127); p99 in the
	// 10000 bucket (upper edge 16383); p100 clamps to the observed max.
	if q := s.Quantile(0.5); q < 100 || q > 127 {
		t.Errorf("p50 = %d, want in [100, 127]", q)
	}
	if q := s.Quantile(0.99); q < 10000 || q > 16383 {
		t.Errorf("p99 = %d, want in [10000, 16383]", q)
	}
	if q := s.Quantile(1); q != 1000000 {
		t.Errorf("p100 = %d, want the observed max 1000000", q)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot should report zeros")
	}
}

func TestHistogramZeroAndHuge(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(math.MaxUint64)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[64] != 1 {
		t.Errorf("extreme values landed in wrong buckets: %v ... %v", s.Buckets[0], s.Buckets[64])
	}
	if q := s.Quantile(0.25); q != 0 {
		t.Errorf("p25 = %d, want 0", q)
	}
}

// TestSnapshotConsistencyUnderConcurrency hammers counters and a histogram
// from N goroutines while concurrently snapshotting: every snapshot's
// totals must be monotone nondecreasing (counters never go backward, no
// torn reads), and the final totals must be exact. Run under -race this is
// also the registry's data-race proof.
func TestSnapshotConsistencyUnderConcurrency(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "")
	h := r.Histogram("lat_ns", "")
	const (
		writers = 8
		perG    = 5000
	)
	var stop atomic.Bool
	snapErr := make(chan string, 1)
	fail := func(msg string) {
		select {
		case snapErr <- msg:
		default:
		}
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		var lastC, lastH uint64
		for !stop.Load() {
			var curC, curH uint64
			for _, m := range r.Snapshot() {
				switch m.Name {
				case "ops_total":
					curC = uint64(m.Value)
				case "lat_ns":
					curH = m.Hist.Count
					var sum uint64
					for _, b := range m.Hist.Buckets {
						sum += b
					}
					if sum != m.Hist.Count {
						fail("histogram bucket sum diverged from count")
						return
					}
				}
			}
			if curC < lastC || curH < lastH {
				fail("snapshot totals went backward")
				return
			}
			lastC, lastH = curC, curH
		}
	}()
	var writersWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writersWG.Add(1)
		go func(seed uint64) {
			defer writersWG.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Record(seed*31 + uint64(j)%1000)
			}
		}(uint64(i + 1))
	}
	writersWG.Wait()
	stop.Store(true)
	<-snapDone
	select {
	case msg := <-snapErr:
		t.Fatal(msg)
	default:
	}
	if got := c.Load(); got != writers*perG {
		t.Errorf("final counter = %d, want %d", got, writers*perG)
	}
	if got := h.Snapshot().Count; got != writers*perG {
		t.Errorf("final histogram count = %d, want %d", got, writers*perG)
	}
}

// TestObservePathZeroAlloc pins the hot observe path at zero allocations.
func TestObservePathZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Inc()
		g.Dec()
		h.Record(1234)
		h.RecordN(77, 32)
	})
	if allocs != 0 {
		t.Errorf("observe path allocates %v/op, want 0", allocs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	c := r.Counter("beqos_reqs_total", "total requests\nwith a newline")
	g := r.Gauge("beqos_active", "active flows")
	h := r.Histogram("beqos_lat_ns", "latency")
	c.Add(5)
	for i := 0; i < 3; i++ {
		g.Inc()
	}
	h.RecordN(100, 4)
	h.Record(5000)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE beqos_reqs_total counter",
		"beqos_reqs_total 5",
		"# HELP beqos_reqs_total total requests with a newline",
		"# TYPE beqos_active gauge",
		"beqos_active 3",
		"# TYPE beqos_lat_ns histogram",
		`beqos_lat_ns_bucket{le="127"} 4`,
		`beqos_lat_ns_bucket{le="8191"} 5`,
		`beqos_lat_ns_bucket{le="+Inf"} 5`,
		"beqos_lat_ns_sum 5400",
		"beqos_lat_ns_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Counter("a", "").Add(2)
	h := r.Histogram("lat", "")
	h.RecordN(64, 10)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"a": 2`, `"lat"`, `"count": 10`, `"p50": 64`} {
		if !strings.Contains(out, want) {
			t.Errorf("json output missing %q:\n%s", want, out)
		}
	}
}
