// Command perfbench is beqos's end-to-end benchmark. One process drives one
// workload with two closed-loop callers, times every call into a layer's
// public API from outside, checks the outputs, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records what the per-layer replays need and prints the
// per-layer ledger instead. README.md describes workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// callers is the number of closed-loop callers every workload runs.
const callers = 2

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// probe marks a short run made inside a traced run only to measure
	// layers the traced workload does not exercise; it builds its workload
	// once.
	probe bool
}

// duration is the length of the timed region.
func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// procs is each workload's GOMAXPROCS. The serving workloads run every
// goroutine on one processor: with two, the callers' and the servers'
// hand-offs cross processors, and the same code on link switched between
// two modes, p50 12.5 or 20 us and p99 28 or 49-74 us (README.md).
// sim's callers never hand off, and one processor each keeps a replication
// from waiting behind the other caller's.
var procs = map[string]int{"link": 1, "softstate": 1, "cluster": 1, "sim": 2}

var workloads = map[string]func(config) (*outcome, error){
	"link":      runLink,
	"softstate": runSoftstate,
	"cluster":   runCluster,
	"sim":       runSim,
}

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"resv.codec.encode_ns", "ns"},
	{"resv.codec.decode_ns", "ns"},
	{"resv.codec.collect_ns", "ns"},
	{"resv.server.request_ns", "ns"},
	{"resv.server.frames_per_read", "count"},
	{"resv.server.refreshes", "count"},
	{"resv.server.expiries", "count"},
	{"resv.server.idle_cpu_ms_per_s", "ms/s"},
	{"policy.admit_ns", "ns"},
	{"policy.deny_ratio", "ratio"},
	{"cluster.request_ns", "ns"},
	{"cluster.hop_ns", "ns"},
	{"cluster.forwards_per_path", "count"},
	{"cluster.rollback_ratio", "ratio"},
	{"cluster.deny_ratio", "ratio"},
	{"cluster.route_alternate_ratio", "ratio"},
	{"cluster.route_fallback_ratio", "ratio"},
	{"cluster.gossip_out_per_path", "count"},
	{"cluster.gossip_suppressed_ratio", "ratio"},
	{"cluster.expiries", "count"},
	{"cluster.idle_cpu_ms_per_s", "ms/s"},
	{"workload.parse_us", "us"},
	{"workload.next_ns", "ns"},
	{"sim.events_per_flow", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.arena_peak", "count"},
	{"core.eval_ms", "ms"},
	{"obs.record_ns", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us", "us"},
	{"runtime.sched_wait_us_mean", "us"},
	{"ledger.residual_us", "us"},
	{"ledger.trace_overhead_ratio", "ratio"},
}

// suppliers names, for each layer that only some workloads exercise, the
// workload whose short probe measures it inside a traced run of another
// workload, so that every traced run prints the whole ledger.
var suppliers = []struct{ prefix, workload string }{
	{"resv.", "softstate"},
	{"policy.", "link"},
	{"cluster.", "cluster"},
	{"sim.", "sim"},
	{"core.", "sim"},
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed uint64
	problems          []string
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed output check unless ok.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: link, softstate, cluster or sim")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the timed region, seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload link|softstate|cluster|sim --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	runtime.GOMAXPROCS(procs[*name])
	fmt.Printf("host gomaxprocs=%d nproc=%d cpu=%q go=%s seed=%d workload=%s trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), cfg.seed, *name, *trace)

	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !cfg.trace {
		return report(o, endToEnd, o.e2e)
	}
	if err := fillFromProbes(o, *name, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(o, perLayer, o.layer)
}

// fillFromProbes measures each ledger entry the traced workload left unset
// with a one-second probe of the workload that supplies it. A probe's
// failed output checks fail the run.
func fillFromProbes(o *outcome, name string, cfg config) error {
	done := map[string]*outcome{}
	for _, d := range perLayer {
		if _, ok := o.layer[d.name]; ok {
			continue
		}
		for _, s := range suppliers {
			if s.workload == name || !strings.HasPrefix(d.name, s.prefix) {
				continue
			}
			po, ok := done[s.workload]
			if !ok {
				var err error
				prev := runtime.GOMAXPROCS(procs[s.workload])
				po, err = workloads[s.workload](config{seed: cfg.seed, seconds: 1, trace: true, probe: true})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					return fmt.Errorf("%s probe: %w", s.workload, err)
				}
				for _, msg := range po.problems {
					o.check(false, "%s probe: %s", s.workload, msg)
				}
				o.failed += po.failed
				done[s.workload] = po
			}
			if v, ok := po.layer[d.name]; ok {
				o.layer[d.name] = v
				break
			}
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of defs, one per line, then the JSON result.
// A run whose outputs failed a check counts all its operations as failed
// and exits non-zero.
func report(o *outcome, defs []metricDef, values map[string]float64) int {
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(false, "metric %s was not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("%-34s %14.6g (%d of %d ops failed)\n", "error_ratio", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	if res.Attempted == 0 {
		o.check(false, "no operation was attempted")
		res.Attempted = 1
	}
	sort.Strings(o.problems)
	for _, msg := range o.problems {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	res.Correct = len(o.problems) == 0 && o.failed == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuModel returns the processor name the kernel reports, for the host line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
