// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so benchmark runs can be archived and
// compared across commits (see `make bench`, which writes BENCH_core.json).
//
// Usage:
//
//	go test -bench=. -benchmem -count 5 . | benchjson [-o FILE]
//	go test -bench=. -benchmem -count 5 . | benchjson -diff BENCH_core.json [-gate REGEX] [-ns-tol 0.30] [-floor RE=unit:MIN,...]
//
// The repeats -count makes of one benchmark fold into one entry: its
// median ns/op, with the fastest and slowest run kept beside it, the
// median of each custom metric, and the largest allocs/op and B/op seen,
// so a count that flickers between runs is recorded at its high side.
//
// In -diff mode the fresh results are compared against a committed
// baseline: benchmarks whose name matches -gate fail the run when ns/op
// regresses by more than -ns-tol (fractional, default 0.30) or when
// allocs/op increases at all — the allocation wins are a ratchet. Gated
// benchmarks missing from the fresh run also fail, so the gate cannot be
// silently dropped. Non-gated benchmarks are reported but never fail.
//
// -floor adds absolute minimums on custom b.ReportMetric units
// (comma-separated NAME_RE=unit:MIN entries, e.g.
// "HighConcurrency=req/s:20000"): every fresh benchmark matching NAME_RE
// must report the unit at or above MIN, and a floor no benchmark matches
// fails too. Floors are absolute rather than baseline-relative because
// throughput metrics (req/s) vary with the host; the floor encodes the
// "still fundamentally works at scale" bar, not a regression tolerance.
//
// Lines that are not benchmark results (the header, PASS/ok trailers) are
// folded into the report's metadata where recognized and skipped otherwise.
// Each report also records where its numbers came from: the Go toolchain
// (benchjson's own, since the same go command builds it and runs the
// benchmarks) and, per entry, the GOMAXPROCS go test ran it at. -diff
// prints both sides' provenance first, since allocs/op and ns/op can move
// with the toolchain and the CPU count alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at (go test's -N name
	// suffix), 0 when the name carried none — go test omits it at 1, and
	// reports archived before it was recorded lack it.
	Procs int `json:"procs,omitempty"`
	// Runs is the number of -count repeats folded into the entry, 0 for a
	// benchmark run once; Iterations sums them.
	Runs       int     `json:"runs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// NsMin and NsMax are the fastest and slowest repeat (folded entries
	// only); NsPerOp is their median.
	NsMin       float64 `json:"ns_min,omitempty"`
	NsMax       float64 `json:"ns_max,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units ("req/s", "flows", …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	GOOS    string `json:"goos,omitempty"`
	GOARCH  string `json:"goarch,omitempty"`
	Package string `json:"pkg,omitempty"`
	CPU     string `json:"cpu,omitempty"`
	// Go is the toolchain that built and ran the benchmarks.
	Go      string   `json:"go,omitempty"`
	Results []Result `json:"results"`
}

// provenance describes where a report's numbers came from: its toolchain
// and the GOMAXPROCS values its entries ran at ("unknown" for reports
// archived before either was recorded).
func (r *Report) provenance() string {
	toolchain := r.Go
	if toolchain == "" {
		toolchain = "unknown"
	}
	seen := map[int]bool{}
	var procs []int
	for _, res := range r.Results {
		if res.Procs > 0 && !seen[res.Procs] {
			seen[res.Procs] = true
			procs = append(procs, res.Procs)
		}
	}
	sort.Ints(procs)
	ps := "unknown"
	if len(procs) > 0 {
		ps = strings.Trim(fmt.Sprint(procs), "[]")
	}
	return fmt.Sprintf("toolchain %s, GOMAXPROCS %s", toolchain, ps)
}

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	diff := flag.String("diff", "", "baseline JSON report to compare against (gate mode)")
	gate := flag.String("gate", ".", "regexp of benchmark names the gate may fail on")
	nsTol := flag.Float64("ns-tol", 0.30, "allowed fractional ns/op regression on gated benchmarks")
	floorSpec := flag.String("floor", "", "comma-separated NAME_RE=unit:MIN absolute metric floors on the fresh run (diff mode)")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *diff != "" {
		base, err := readReport(*diff)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		gateRe, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -gate: %v\n", err)
			os.Exit(1)
		}
		floors, err := parseFloors(*floorSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -floor: %v\n", err)
			os.Exit(1)
		}
		failures := diffReports(os.Stdout, base, rep, gateRe, *nsTol)
		failures += checkFloors(os.Stdout, rep, floors)
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark regression(s) vs %s\n", failures, *diff)
			os.Exit(1)
		}
		return
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// readReport loads a previously archived JSON report.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// diffReports renders a comparison table and returns the number of gate
// failures. A gated benchmark fails when its ns/op regresses by more than
// nsTol (fractional), when its allocs/op increases at all, or when it is
// present in the baseline but missing from the fresh run.
func diffReports(w io.Writer, base, fresh *Report, gateRe *regexp.Regexp, nsTol float64) int {
	bp, fp := base.provenance(), fresh.provenance()
	fmt.Fprintf(w, "base:  %s\nfresh: %s\n", bp, fp)
	if bp != fp {
		fmt.Fprintln(w, "note: the runs differ in toolchain or GOMAXPROCS; either alone can move ns/op and allocs/op")
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	freshNames := make(map[string]bool, len(fresh.Results))
	failures := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s %10s  %s\n",
		"benchmark", "base ns/op", "new ns/op", "Δns", "allocs", "status")
	for _, r := range fresh.Results {
		freshNames[r.Name] = true
		b, ok := baseByName[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s %10d  %s\n",
				r.Name, "-", r.NsPerOp, "-", r.AllocsPerOp, "new (no baseline)")
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = r.NsPerOp/b.NsPerOp - 1
		}
		gated := gateRe.MatchString(r.Name)
		status := "ok"
		if gated {
			switch {
			case ratio > nsTol:
				status = fmt.Sprintf("FAIL: ns/op regressed %.0f%% (tolerance %.0f%%)", 100*ratio, 100*nsTol)
				failures++
			case r.AllocsPerOp > b.AllocsPerOp:
				status = fmt.Sprintf("FAIL: allocs/op %d → %d", b.AllocsPerOp, r.AllocsPerOp)
				failures++
			}
		} else {
			status = "ok (ungated)"
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.0f%% %4d→%-5d  %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, 100*ratio, b.AllocsPerOp, r.AllocsPerOp, status)
	}
	for _, b := range base.Results {
		if !freshNames[b.Name] && gateRe.MatchString(b.Name) {
			fmt.Fprintf(w, "%-44s %14.0f %14s %8s %10s  FAIL: missing from fresh run\n",
				b.Name, b.NsPerOp, "-", "-", "-")
			failures++
		}
	}
	return failures
}

// parse reads go-test benchmark output line by line. The report's
// toolchain is benchjson's own.
func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Go: runtime.Version()}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Results = fold(rep.Results)
	return rep, nil
}

// fold merges the -count repeats of each benchmark (same name, same
// GOMAXPROCS) into one entry at the position of its first run: the median
// ns/op with the range in NsMin/NsMax, the median of each custom metric,
// the largest allocs/op and B/op, and the summed iterations. A benchmark
// run once keeps its entry as parsed.
func fold(results []Result) []Result {
	type key struct {
		name  string
		procs int
	}
	groups := map[key][]Result{}
	var order []key
	for _, r := range results {
		k := key{r.Name, r.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		runs := groups[k]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		f := Result{Name: k.name, Procs: k.procs, Runs: len(runs)}
		ns := make([]float64, len(runs))
		units := map[string][]float64{}
		for i, r := range runs {
			ns[i] = r.NsPerOp
			f.Iterations += r.Iterations
			f.BytesPerOp = max(f.BytesPerOp, r.BytesPerOp)
			f.AllocsPerOp = max(f.AllocsPerOp, r.AllocsPerOp)
			for u, v := range r.Metrics {
				units[u] = append(units[u], v)
			}
		}
		f.NsPerOp, f.NsMin, f.NsMax = median(ns), slices.Min(ns), slices.Max(ns)
		if len(units) > 0 {
			f.Metrics = make(map[string]float64, len(units))
		}
		for u, vs := range units {
			f.Metrics[u] = median(vs)
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), sorting vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseResult parses one result line of the form
//
//	BenchmarkName-8   1234   567.8 ns/op [  90 B/op   3 allocs/op]
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	name := fields[0]
	// Move the -GOMAXPROCS suffix go test appends into Procs.
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Procs: procs, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			// A custom b.ReportMetric unit (req/s, flows, …).
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// floor is one -floor entry: fresh benchmarks matching the name pattern
// must report the unit at or above min.
type floor struct {
	re   *regexp.Regexp
	unit string
	min  float64
}

// parseFloors parses comma-separated NAME_RE=unit:MIN entries.
func parseFloors(spec string) ([]floor, error) {
	if spec == "" {
		return nil, nil
	}
	var fls []floor
	for _, entry := range strings.Split(spec, ",") {
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("floor %q: want NAME_RE=unit:MIN", entry)
		}
		unit, minStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("floor %q: want NAME_RE=unit:MIN", entry)
		}
		re, err := regexp.Compile(name)
		if err != nil {
			return nil, fmt.Errorf("floor %q: %v", entry, err)
		}
		min, err := strconv.ParseFloat(minStr, 64)
		if err != nil {
			return nil, fmt.Errorf("floor %q: %v", entry, err)
		}
		fls = append(fls, floor{re: re, unit: unit, min: min})
	}
	return fls, nil
}

// checkFloors enforces absolute metric floors on the fresh run and returns
// the number of failures. A floor with no matching fresh benchmark fails,
// so a floor cannot be silently dropped by renaming the benchmark.
func checkFloors(w io.Writer, fresh *Report, floors []floor) int {
	failures := 0
	for _, fl := range floors {
		matched := false
		for _, r := range fresh.Results {
			if !fl.re.MatchString(r.Name) {
				continue
			}
			matched = true
			v, ok := r.Metrics[fl.unit]
			switch {
			case !ok:
				fmt.Fprintf(w, "%-44s FLOOR FAIL: no %s metric (want ≥ %g)\n", r.Name, fl.unit, fl.min)
				failures++
			case v < fl.min:
				fmt.Fprintf(w, "%-44s FLOOR FAIL: %s %.0f < %g\n", r.Name, fl.unit, v, fl.min)
				failures++
			default:
				fmt.Fprintf(w, "%-44s floor ok: %s %.0f ≥ %g\n", r.Name, fl.unit, v, fl.min)
			}
		}
		if !matched {
			fmt.Fprintf(w, "%-44s FLOOR FAIL: no benchmark matches (want %s ≥ %g)\n", fl.re, fl.unit, fl.min)
			failures++
		}
	}
	return failures
}
