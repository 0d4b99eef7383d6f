package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The timed region is cut into slices of sliceLen. Between slices the
// callers are parked, so that a traced run can switch tracing on or off,
// and before every probeEvery-th slice the host is probed. The slices are
// grouped into windows of windowLen. Each end-to-end figure is measured in
// every window, scaled by the host probes of that window (scale), and the
// median over the windows is reported. A window spans more than one period
// of the program's periodic work (the cluster's expiry sweep every 750 ms,
// the TTL wheels' ticks), so every window carries that work at its natural
// rate.
const (
	sliceLen   = 25 * time.Millisecond
	windowLen  = 2 * time.Second
	probeEvery = 4
)

// region is one timed stretch of closed-loop calls: its slices, and all
// of them merged.
type region struct {
	slices []slice
	all    slice
	rt     rtStat
}

// slice is the calls made between two parkings of the callers, or several
// such stretches merged, and the host probes taken just before them.
type slice struct {
	wall   time.Duration
	ops    uint64
	calls  callHist // the duration of every call
	cpu    time.Duration
	probes []time.Duration
	traced bool
}

func (s *slice) add(o *slice) {
	s.wall += o.wall
	s.ops += o.ops
	s.calls.merge(&o.calls)
	s.cpu += o.cpu
	s.probes = append(s.probes, o.probes...)
}

func (s *slice) throughput() float64 { return float64(s.ops) / s.wall.Seconds() }

// drive runs one closed-loop goroutine per caller, each calling call(w)
// back to back, and times every call from outside; call returns the number
// of operations the call carried. The callers run one slice at a time
// until d has passed, and are parked while the host is probed. With a
// trace hook, every second slice is traced: trace(k, on) runs before slice
// k, while the callers are parked.
func drive(d time.Duration, call func(w int) int, trace func(k int, on bool)) region {
	n := max(2, int(d/sliceLen))
	r := region{slices: make([]slice, n)}
	// share is one caller's part of the current slice.
	type share struct {
		calls callHist
		ops   uint64
		end   time.Time
	}
	shares := make([]share, callers)
	starts := make([]chan time.Time, callers)
	var wg sync.WaitGroup
	for w := range starts {
		starts[w] = make(chan time.Time)
		go func(w int) {
			sh := &shares[w]
			for deadline := range starts[w] {
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						sh.end = t0
						break
					}
					c := call(w)
					sh.calls.record(uint64(time.Since(t0)))
					sh.ops += uint64(c)
				}
				wg.Done()
			}
		}(w)
	}
	rt0 := readRuntime()
	for k := range r.slices {
		s := &r.slices[k]
		if k%probeEvery == 0 {
			s.probes = []time.Duration{probeHost()}
		}
		if trace != nil {
			s.traced = k%2 == 1
			trace(k, s.traced)
		}
		wg.Add(callers)
		cpu0, t0 := cpuTime(), time.Now()
		for _, start := range starts {
			start <- t0.Add(sliceLen)
		}
		wg.Wait()
		s.cpu = cpuTime() - cpu0
		for w := range shares {
			sh := &shares[w]
			s.wall = max(s.wall, sh.end.Sub(t0))
			s.ops += sh.ops
			s.calls.merge(&sh.calls)
			*sh = share{}
		}
		r.all.add(s)
	}
	r.rt = readRuntime().sub(rt0)
	for _, start := range starts {
		close(start)
	}
	return r
}

// windows merges the region's slices into consecutive windows of about
// windowLen; a short remainder joins the last window.
func (r region) windows() []slice {
	per := max(1, int(windowLen/sliceLen))
	ws := make([]slice, max(1, len(r.slices)/per))
	for k := range r.slices {
		ws[min(k/per, len(ws)-1)].add(&r.slices[k])
	}
	return ws
}

// traceOverhead is the throughput of the traced slices over that of the
// untraced slice before each, over the slices before until, in which
// tracing ran throughout.
func (r region) traceOverhead(until int) float64 {
	var on, off slice
	for k := 1; k < min(until, len(r.slices)); k++ {
		if r.slices[k].traced {
			on.add(&r.slices[k])
			off.add(&r.slices[k-1])
		}
	}
	return on.throughput() / off.throughput()
}

// The shared host this benchmark runs on slows for minutes at a time, and
// its slow spells hit goroutine hand-offs far harder than arithmetic
// (README.md). probeHost measures them with hand-offs alone: it times
// probeTrips round trips of a value between two goroutines over
// unbuffered channels, three times over, and returns the fastest pass.
// The callers are parked while it runs and it runs none of the program's
// code; a sweep or GC cycle of the program's that runs during a probe
// slows that probe only, which the median over a window's probes ignores.
const probeTrips = 256

// probeRef is the probe time the reported figures are scaled to: about
// what the probe reads on the host README.md describes when it runs fast.
const probeRef = 120 * time.Microsecond

var probePing, probePong = make(chan uint64), make(chan uint64)

func init() {
	go func() {
		for v := range probePing {
			probePong <- v + 1
		}
	}()
}

func probeHost() time.Duration {
	best := time.Duration(math.MaxInt64)
	for range 3 {
		t0 := time.Now()
		var v uint64
		for range probeTrips {
			probePing <- v
			v = <-probePong
		}
		best = min(best, time.Since(t0))
	}
	return best
}

// scale is the factor that takes a duration measured while the host probes
// read probes to the duration it would have had at probeRef: the reference
// time over the median probe. Throughputs are divided by it.
func scale(probes []time.Duration) float64 {
	xs := make([]float64, len(probes))
	for i, p := range probes {
		xs[i] = float64(p)
	}
	return float64(probeRef) / median(xs)
}

// subBits sets the call histogram's resolution: 2^subBits buckets per
// power of two, so a bucket spans about 3% of the values it holds.
// maxBits bounds the durations it holds to 2^maxBits ns, about 4 s.
const (
	subBits = 5
	maxBits = 32
)

// callHist is the benchmark's own histogram of call durations in
// nanoseconds: log-linear buckets, exact count and sum, fixed memory.
// Quantiles interpolate within a bucket, so they carry the bucket's
// error of a percent or two, never the 2x of a power-of-two histogram.
type callHist struct {
	counts [(maxBits - subBits + 1) << subBits]uint32
	n      uint64
	sum    float64
}

// bucketOf maps v to its bucket: values below 2^subBits have one bucket
// each, and every later power of two is split into 2^subBits equal parts.
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits
	return e<<subBits | int(v>>(e-1))&(1<<subBits-1)
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (lo, width float64) {
	e, sub := i>>subBits, i&(1<<subBits-1)
	if e == 0 {
		return float64(sub), 1
	}
	w := math.Ldexp(1, e-1)
	return float64(1<<subBits+sub) * w, w
}

func (h *callHist) record(v uint64) {
	h.counts[bucketOf(min(v, 1<<maxBits-1))]++
	h.n++
	h.sum += float64(v)
}

func (h *callHist) merge(o *callHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantileUs is the q-quantile of the call durations, in microseconds.
func (h *callHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := math.Max(1, math.Ceil(q*float64(h.n)))
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketRange(i)
			return (lo + width*(rank-seen)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	return math.NaN()
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setEndToEnd fills the end-to-end metrics of an untraced timed region.
// Each is measured per window, scaled by the window's host probes, and
// the median over the windows is reported. The unscaled medians are
// printed beside them, and so are the p90 and p99 latencies, unscaled and
// undeclared: a stall of the host lengthens the calls it lands in by its
// own length, not in proportion to them, so no scale steadies the tail
// (README.md).
func (o *outcome) setEndToEnd(r region, setup float64) {
	ws := r.windows()
	fmt.Printf("end-to-end figures: medians over %d windows of %d calls (%d ops) in all\n", len(ws), r.all.calls.n, r.all.ops)
	perWindow := func(f func(w *slice) float64, per float64) (raw, scaled float64) {
		rs, ss := make([]float64, len(ws)), make([]float64, len(ws))
		for i := range ws {
			rs[i] = f(&ws[i])
			ss[i] = rs[i] * math.Pow(scale(ws[i].probes), per)
		}
		return median(rs), median(ss)
	}
	set := func(name string, f func(w *slice) float64, per float64) {
		raw, scaled := perWindow(f, per)
		o.e2e[name] = scaled
		fmt.Printf("%-34s %14.6g unscaled\n", name, raw)
	}
	set("throughput_per_s", (*slice).throughput, -1)
	set("latency_p50_us", func(w *slice) float64 { return w.calls.quantileUs(0.50) }, 1)
	set("cpu_us_per_op", func(w *slice) float64 { return w.cpu.Seconds() * 1e6 / float64(w.ops) }, 1)
	for _, q := range []float64{0.90, 0.99} {
		raw, _ := perWindow(func(w *slice) float64 { return w.calls.quantileUs(q) }, 0)
		fmt.Printf("%-34s %14.6g unscaled, not declared\n", fmt.Sprintf("latency_p%.0f_us", q*100), raw)
	}
	o.e2e["rss_mb"] = peakRSSMB()
	o.e2e["setup_s"] = setup
}

// setRuntime fills the runtime ledger entries from a traced region, and
// the trace overhead over its slices before tracedUntil.
func (o *outcome) setRuntime(r region, tracedUntil int) {
	ops := float64(r.all.ops)
	o.layer["runtime.allocs_per_op"] = float64(r.rt.allocs) / ops
	o.layer["runtime.alloc_bytes_per_op"] = float64(r.rt.allocBytes) / ops
	o.layer["runtime.gc_cycles"] = float64(r.rt.gcCycles)
	o.layer["runtime.gc_pause_us"] = r.rt.gcPause.sum * 1e6
	o.layer["runtime.sched_wait_us_mean"] = r.rt.schedWait.mean() * 1e6
	o.layer["ledger.trace_overhead_ratio"] = r.traceOverhead(tracedUntil)
}

// setResidual sets ledger.residual_us: the mean duration of calls less
// selfNS, the time the layers' own instruments and spans account for in
// them, per call.
func (o *outcome) setResidual(calls *callHist, selfNS float64) {
	o.layer["ledger.residual_us"] = (calls.sum - selfNS) / float64(calls.n) / 1e3
}

// A run builds its workload instance setupRuns times, probing the host
// before each build and after the last, and keeps the last instance.
// setup_s is the median build time scaled by those probes (scale). Every
// build ends with a GC, so set-up garbage is not billed to the first timed
// calls. A probe run builds once.
const setupRuns = 9

func setUp[T any](cfg config, build func() (T, error), discard func(T)) (T, float64, error) {
	n := setupRuns
	if cfg.probe {
		n = 1
	}
	var inst T
	times := make([]float64, n)
	probes := []time.Duration{probeHost()}
	for i := range times {
		if i > 0 {
			discard(inst)
			runtime.GC() // so no two instances are ever live at once
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		runtime.GC()
		times[i] = time.Since(t0).Seconds()
		probes = append(probes, probeHost())
		inst = v
	}
	fmt.Printf("%-34s %14.6g unscaled\n", "setup_s", median(times))
	return inst, median(times) * scale(probes), nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// idleCPU is the process CPU, in milliseconds per wall second, burned
// while the benchmark sends nothing for d: expiry wheels, sweeps and gossip
// ticks. It is always measured outside the timed region.
func idleCPU(d time.Duration) float64 {
	c0, t0 := cpuTime(), time.Now()
	time.Sleep(d)
	return float64(cpuTime()-c0) / 1e6 / time.Since(t0).Seconds()
}

// rtStat is a reading of the Go runtime's own metrics.
type rtStat struct {
	gcCycles, allocs, allocBytes uint64
	gcPause, schedWait           histSum
}

// histSum is a runtime histogram reduced to its count and its sum, taking
// each bucket at its midpoint.
type histSum struct {
	sum   float64
	count uint64
}

func (h histSum) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtStat {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(v metrics.Value) uint64 {
		if v.Kind() != metrics.KindUint64 {
			return 0
		}
		return v.Uint64()
	}
	return rtStat{
		gcCycles:   u(s[0].Value),
		allocs:     u(s[1].Value),
		allocBytes: u(s[2].Value),
		gcPause:    histOf(s[3].Value),
		schedWait:  histOf(s[4].Value),
	}
}

func histOf(v metrics.Value) histSum {
	if v.Kind() != metrics.KindFloat64Histogram {
		return histSum{}
	}
	h := v.Float64Histogram()
	var out histSum
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		out.sum += float64(c) * (lo + hi) / 2
		out.count += c
	}
	return out
}

func (a rtStat) sub(b rtStat) rtStat {
	return rtStat{
		gcCycles:   a.gcCycles - b.gcCycles,
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcPause:    histSum{a.gcPause.sum - b.gcPause.sum, a.gcPause.count - b.gcPause.count},
		schedWait:  histSum{a.schedWait.sum - b.schedWait.sum, a.schedWait.count - b.schedWait.count},
	}
}
