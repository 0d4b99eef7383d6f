package main

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: beqos
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAlpha-8      100   1000.0 ns/op   96 B/op   2 allocs/op
BenchmarkBeta-8       200   2000.0 ns/op    0 B/op   0 allocs/op
BenchmarkGamma-8      300   3000.0 ns/op
PASS
ok    beqos 1.234s
`

func parseSample(t *testing.T, text string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParse(t *testing.T) {
	rep := parseSample(t, sampleOutput)
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Package != "beqos" {
		t.Errorf("metadata wrong: %+v", rep)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	a := rep.Results[0]
	if a.Name != "BenchmarkAlpha" || a.NsPerOp != 1000 || a.BytesPerOp != 96 || a.AllocsPerOp != 2 {
		t.Errorf("alpha parsed wrong: %+v", a)
	}
	if g := rep.Results[2]; g.AllocsPerOp != 0 || g.NsPerOp != 3000 {
		t.Errorf("gamma parsed wrong: %+v", g)
	}
}

// diffCase runs diffReports for a fresh run against the sample baseline.
func diffCase(t *testing.T, fresh string, gate string, nsTol float64) (int, string) {
	t.Helper()
	base := parseSample(t, sampleOutput)
	rep := parseSample(t, fresh)
	var sb strings.Builder
	fails := diffReports(&sb, base, rep, regexp.MustCompile(gate), nsTol)
	return fails, sb.String()
}

func TestDiffClean(t *testing.T) {
	fails, out := diffCase(t, sampleOutput, ".", 0.30)
	if fails != 0 {
		t.Errorf("identical runs should pass, got %d failures:\n%s", fails, out)
	}
}

func TestDiffNsRegression(t *testing.T) {
	fresh := strings.Replace(sampleOutput, "1000.0 ns/op", "1400.0 ns/op", 1)
	fails, out := diffCase(t, fresh, ".", 0.30)
	if fails != 1 || !strings.Contains(out, "ns/op regressed") {
		t.Errorf("40%% ns regression should fail once, got %d:\n%s", fails, out)
	}
	// Within tolerance: 40% is fine at a 50% gate.
	if fails, _ := diffCase(t, fresh, ".", 0.50); fails != 0 {
		t.Errorf("regression within tolerance should pass, got %d failures", fails)
	}
}

func TestDiffAllocRegression(t *testing.T) {
	fresh := strings.Replace(sampleOutput, "96 B/op   2 allocs/op", "96 B/op   3 allocs/op", 1)
	fails, out := diffCase(t, fresh, ".", 0.30)
	if fails != 1 || !strings.Contains(out, "allocs/op 2 → 3") {
		t.Errorf("any allocs/op increase should fail, got %d:\n%s", fails, out)
	}
}

func TestDiffGateRestrictsFailures(t *testing.T) {
	fresh := strings.Replace(sampleOutput, "1000.0 ns/op", "9000.0 ns/op", 1)
	fails, out := diffCase(t, fresh, "BenchmarkBeta", 0.30)
	if fails != 0 {
		t.Errorf("ungated regression should not fail, got %d:\n%s", fails, out)
	}
	if !strings.Contains(out, "ok (ungated)") {
		t.Errorf("ungated rows should still be reported:\n%s", out)
	}
}

func TestDiffMissingGatedBenchmark(t *testing.T) {
	fresh := strings.Replace(sampleOutput, "BenchmarkBeta-8       200   2000.0 ns/op    0 B/op   0 allocs/op\n", "", 1)
	fails, out := diffCase(t, fresh, "BenchmarkBeta", 0.30)
	if fails != 1 || !strings.Contains(out, "missing from fresh run") {
		t.Errorf("dropped gated benchmark should fail, got %d:\n%s", fails, out)
	}
}

func TestDiffNewBenchmarkIsInformational(t *testing.T) {
	fresh := sampleOutput + "BenchmarkDelta-8   50   500.0 ns/op\n"
	fails, out := diffCase(t, fresh, ".", 0.30)
	if fails != 0 || !strings.Contains(out, "new (no baseline)") {
		t.Errorf("benchmark without baseline should not fail, got %d:\n%s", fails, out)
	}
}

const metricOutput = sampleOutput +
	"BenchmarkHigh-8   500   7000.0 ns/op   100000 flows   276228 req/s   0 B/op   0 allocs/op\n"

func TestParseCustomMetrics(t *testing.T) {
	rep := parseSample(t, metricOutput)
	h := rep.Results[len(rep.Results)-1]
	if h.Name != "BenchmarkHigh" || h.AllocsPerOp != 0 || h.BytesPerOp != 0 {
		t.Fatalf("high parsed wrong: %+v", h)
	}
	if h.Metrics["flows"] != 100000 || h.Metrics["req/s"] != 276228 {
		t.Errorf("custom metrics parsed wrong: %+v", h.Metrics)
	}
	// Plain results carry no metrics map (keeps the JSON compact).
	if rep.Results[0].Metrics != nil {
		t.Errorf("alpha should have no metrics: %+v", rep.Results[0].Metrics)
	}
}

func TestParseFloors(t *testing.T) {
	fls, err := parseFloors("High=req/s:20000,Alpha|Beta=flows:1e5")
	if err != nil {
		t.Fatal(err)
	}
	if len(fls) != 2 || fls[0].unit != "req/s" || fls[0].min != 20000 || fls[1].min != 1e5 {
		t.Errorf("floors parsed wrong: %+v", fls)
	}
	if fls, err := parseFloors(""); err != nil || fls != nil {
		t.Errorf("empty spec should be a no-op, got %v, %v", fls, err)
	}
	for _, bad := range []string{"High", "High=req/s", "High=req/s:fast", "(=req/s:1"} {
		if _, err := parseFloors(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// floorCase runs checkFloors on a fresh run parsed from text.
func floorCase(t *testing.T, fresh, spec string) (int, string) {
	t.Helper()
	fls, err := parseFloors(spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fails := checkFloors(&sb, parseSample(t, fresh), fls)
	return fails, sb.String()
}

func TestFloorPass(t *testing.T) {
	fails, out := floorCase(t, metricOutput, "High=req/s:20000")
	if fails != 0 || !strings.Contains(out, "floor ok") {
		t.Errorf("metric above floor should pass, got %d:\n%s", fails, out)
	}
}

func TestFloorBelowMinimum(t *testing.T) {
	fails, out := floorCase(t, metricOutput, "High=req/s:300000")
	if fails != 1 || !strings.Contains(out, "FLOOR FAIL") {
		t.Errorf("metric below floor should fail, got %d:\n%s", fails, out)
	}
}

func TestFloorMissingMetricOrBenchmark(t *testing.T) {
	// The matched benchmark lacks the unit: fail.
	fails, out := floorCase(t, metricOutput, "High=widgets/s:1")
	if fails != 1 || !strings.Contains(out, "no widgets/s metric") {
		t.Errorf("missing unit should fail, got %d:\n%s", fails, out)
	}
	// No benchmark matches the pattern at all: fail, so a rename cannot
	// silently drop the floor.
	fails, out = floorCase(t, metricOutput, "Vanished=req/s:1")
	if fails != 1 || !strings.Contains(out, "no benchmark matches") {
		t.Errorf("unmatched floor should fail, got %d:\n%s", fails, out)
	}
}

func TestParseRecordsProvenance(t *testing.T) {
	rep := parseSample(t, sampleOutput+"BenchmarkSolo   10   5.0 ns/op\n")
	if rep.Go != runtime.Version() {
		t.Errorf("toolchain = %q, want benchjson's own %q", rep.Go, runtime.Version())
	}
	for _, r := range rep.Results {
		want := 8
		if r.Name == "BenchmarkSolo" {
			want = 0 // no -N suffix: go test omits it at GOMAXPROCS=1
		}
		if r.Procs != want || strings.Contains(r.Name, "-") {
			t.Errorf("%s: procs %d, want %d (suffix moved out of the name)", r.Name, r.Procs, want)
		}
	}
	if got, want := rep.provenance(), "toolchain "+runtime.Version()+", GOMAXPROCS 8"; got != want {
		t.Errorf("provenance = %q, want %q", got, want)
	}
}

func TestDiffHeaderNamesProvenance(t *testing.T) {
	base := parseSample(t, sampleOutput)
	base.Go = "go1.23.4"
	fresh := parseSample(t, strings.ReplaceAll(sampleOutput, "-8 ", "-2 "))
	fresh.Go = "go1.24.0"
	var sb strings.Builder
	if fails := diffReports(&sb, base, fresh, regexp.MustCompile("."), 0.30); fails != 0 {
		t.Errorf("provenance alone must not fail the gate, got %d failures:\n%s", fails, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"base:  toolchain go1.23.4, GOMAXPROCS 8\n",
		"fresh: toolchain go1.24.0, GOMAXPROCS 2\n",
		"note: the runs differ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output lacks %q:\n%s", want, out)
		}
	}
	sb.Reset()
	diffReports(&sb, base, base, regexp.MustCompile("."), 0.30)
	if strings.Contains(sb.String(), "note:") {
		t.Errorf("identical provenance should print no note:\n%s", sb.String())
	}
}

// TestOldBaselineLoads reads a report archived before the toolchain and
// procs were recorded: it loads, diffs clean against itself, and its
// provenance reads unknown.
func TestOldBaselineLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"goos": "linux", "results": [{"name": "BenchmarkAlpha", "iterations": 100, "ns_per_op": 1000, "allocs_per_op": 2}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.provenance(); got != "toolchain unknown, GOMAXPROCS unknown" {
		t.Errorf("provenance = %q", got)
	}
	var sb strings.Builder
	fresh := parseSample(t, sampleOutput)
	if fails := diffReports(&sb, base, fresh, regexp.MustCompile("BenchmarkAlpha"), 0.30); fails != 0 {
		t.Errorf("old baseline vs equal fresh run: %d failures:\n%s", fails, sb.String())
	}
	if !strings.Contains(sb.String(), "base:  toolchain unknown, GOMAXPROCS unknown") {
		t.Errorf("diff header lacks the old baseline's provenance:\n%s", sb.String())
	}
}

// TestFoldCountRepeats: the repeats of a -count run fold into one entry
// per benchmark, in first-seen order: median ns/op with its range, the
// median custom metric, the largest allocs/op and B/op (so a count that
// flickers between 20 and 21 records 21), and the summed iterations.
func TestFoldCountRepeats(t *testing.T) {
	rep := parseSample(t, `goos: linux
BenchmarkS1-2      200   1200.0 ns/op   4000 B/op   20 allocs/op
BenchmarkOnce-2     50    700.0 ns/op
BenchmarkS1-2      210    900.0 ns/op   4100 B/op   21 allocs/op
BenchmarkRate-2    100    500.0 ns/op   3000 req/s
BenchmarkS1-2      190   1000.0 ns/op   4000 B/op   20 allocs/op
BenchmarkRate-2    100    400.0 ns/op   4000 req/s
BenchmarkS1        300   5000.0 ns/op   4000 B/op   20 allocs/op
PASS
`)
	if len(rep.Results) != 4 {
		t.Fatalf("got %d entries, want 4 (S1 at 2 procs, Once, Rate, S1 at 1 proc): %+v", len(rep.Results), rep.Results)
	}
	s1 := rep.Results[0]
	if s1.Name != "BenchmarkS1" || s1.Procs != 2 || s1.Runs != 3 || s1.Iterations != 600 ||
		s1.NsPerOp != 1000 || s1.NsMin != 900 || s1.NsMax != 1200 || s1.AllocsPerOp != 21 || s1.BytesPerOp != 4100 {
		t.Errorf("S1 folded wrong: %+v", s1)
	}
	if once := rep.Results[1]; once.Name != "BenchmarkOnce" || once.Runs != 0 || once.NsPerOp != 700 || once.NsMin != 0 || once.NsMax != 0 {
		t.Errorf("a single run should stay as parsed: %+v", once)
	}
	if rate := rep.Results[2]; rate.Runs != 2 || rate.NsPerOp != 450 || rate.Metrics["req/s"] != 3500 {
		t.Errorf("even count should take the middle pair's mean: %+v", rate)
	}
	if s1p1 := rep.Results[3]; s1p1.Name != "BenchmarkS1" || s1p1.Procs != 0 || s1p1.Runs != 0 || s1p1.NsPerOp != 5000 {
		t.Errorf("a run at another GOMAXPROCS should fold separately: %+v", s1p1)
	}
	// The gate compares medians: the folded 21 allocs/op is the baseline a
	// fresh 20 or 21 passes against.
	base := &Report{Results: []Result{s1}}
	fresh := parseSample(t, "BenchmarkS1-2  200  1100.0 ns/op  4000 B/op  21 allocs/op\n")
	var sb strings.Builder
	if fails := diffReports(&sb, base, fresh, regexp.MustCompile("."), 0.30); fails != 0 {
		t.Errorf("fresh run within the folded baseline failed %d times:\n%s", fails, sb.String())
	}
}
