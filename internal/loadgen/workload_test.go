package loadgen

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"beqos/internal/sim"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

func parseSpec(t *testing.T, text string) *workload.Scenario {
	t.Helper()
	scn, err := workload.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return scn
}

func loadSpecFile(t *testing.T, path string) *workload.Scenario {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	scn, err := workload.Parse(string(data))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return scn
}

// TestWorkloadBaselineBitForBit is the compatibility anchor: driving the
// harness from specs/baseline.spec must reproduce the flagless run — same
// RPC tallies, same time-weighted statistics, same occupancy histogram —
// bit for bit. The reference is the flagless run's Result pinned from the
// original built-in Poisson pump (flagPins[0]).
func TestWorkloadBaselineBitForBit(t *testing.T) {
	util := utility.NewAdaptive()
	const c = 100.0

	scn := loadSpecFile(t, filepath.Join("..", "..", "specs", "baseline.spec"))
	wl, err := Run(Config{
		Server:   newServer(t, c, util),
		Capacity: c,
		Util:     util,
		Workload: scn,
		Seed1:    21, Seed2: 22,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Everything deterministic must agree exactly; pin leaves out Latency
	// and Elapsed (wall clock) and Phases (the scenario breakdown).
	if got, want := pin(t, wl), flagPins[0].want; !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline workload run diverged from the pinned flagless run:\npinned %v\nspec   %v", want, got)
	}
	if len(wl.Phases) != 1 || wl.Phases[0].Name != "steady" {
		t.Fatalf("baseline phase breakdown: %+v", wl.Phases)
	}
	if wl.Phases[0].Flows != wl.Flows || wl.Phases[0].FirstDenied != wl.FirstDenied {
		t.Fatalf("single-phase tallies disagree with run totals: %+v vs Flows %d Denied %d",
			wl.Phases[0], wl.Flows, wl.FirstDenied)
	}
}

// TestWorkloadTraceMatchesSimAndLoadgen is the cross-consumer leg of the
// golden-determinism contract: the simulator, the live harness, and a
// directly instantiated stream must all consume the identical record
// sequence for the same spec and seed.
func TestWorkloadTraceMatchesSimAndLoadgen(t *testing.T) {
	scn := parseSpec(t, `scenario trace
prefill 10
warmup 2
phase calm 12
arrivals poisson rate=10
holding exp mean=1
phase storm 8
arrivals mmpp rate=15 burst=4 sojourn=2
holding pareto mean=1 shape=2
`)
	const s1, s2 = 31, 32
	collect := func(record func(func(workload.Flow))) string {
		var sb strings.Builder
		record(func(f workload.Flow) {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		})
		return sb.String()
	}

	direct := collect(func(hook func(workload.Flow)) {
		st := scn.Stream(s1, s2)
		for {
			rec, ok := st.Next()
			if !ok {
				break
			}
			hook(rec)
		}
	})
	simTrace := collect(func(hook func(workload.Flow)) {
		_, err := sim.Run(sim.Config{
			Capacity:       50,
			Util:           utility.NewAdaptive(),
			Workload:       scn,
			WorkloadRecord: hook,
			Seed1:          s1, Seed2: s2,
		})
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
	})
	lgTrace := collect(func(hook func(workload.Flow)) {
		_, err := Run(Config{
			Server:         newServer(t, 50, utility.NewAdaptive()),
			Capacity:       50,
			Util:           utility.NewAdaptive(),
			Workload:       scn,
			WorkloadRecord: hook,
			Seed1:          s1, Seed2: s2,
		})
		if err != nil {
			t.Fatalf("loadgen.Run: %v", err)
		}
	})

	if direct == "" || !strings.Contains(direct, "\n") {
		t.Fatalf("empty direct trace")
	}
	if simTrace != direct {
		t.Fatalf("sim trace diverged from the direct stream (%d vs %d bytes)", len(simTrace), len(direct))
	}
	if lgTrace != direct {
		t.Fatalf("loadgen trace diverged from the direct stream (%d vs %d bytes)", len(lgTrace), len(direct))
	}
}

// TestWorkloadSpecsRunGreen runs every bundled spec through both
// consumers: the whole corpus must parse, simulate, and drive a live
// server with zero protocol anomalies and clean teardown.
func TestWorkloadSpecsRunGreen(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled specs found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			scn := loadSpecFile(t, path)
			util := utility.NewAdaptive()
			simRes, err := sim.Run(sim.Config{
				Capacity: 120,
				Util:     util,
				Policy:   sim.Reservation,
				KMax:     120,
				Workload: scn,
				Seed1:    41, Seed2: 42,
			})
			if err != nil {
				t.Fatalf("sim.Run: %v", err)
			}
			if simRes.Flows == 0 || len(simRes.PhaseFlows) != len(scn.Phases) {
				t.Fatalf("sim run: %d flows, %d phase tallies", simRes.Flows, len(simRes.PhaseFlows))
			}
			res, err := Run(Config{
				Server:   newServer(t, 120, util),
				Capacity: 120,
				Util:     util,
				Workload: scn,
				Seed1:    41, Seed2: 42,
			})
			if err != nil {
				t.Fatalf("loadgen.Run: %v", err)
			}
			if res.Anomalies != 0 || res.FinalActive != 0 {
				t.Fatalf("anomalies %d, residual reservations %d", res.Anomalies, res.FinalActive)
			}
			if res.Flows == 0 || len(res.Phases) != len(scn.Phases) {
				t.Fatalf("loadgen run: %d flows, %d phase breakdowns", res.Flows, len(res.Phases))
			}
		})
	}
}

// flashSpec drives the per-phase statistics tests: calm stationary
// bracket, a crowd phase whose flash quadruples the rate, and recovery.
const flashSpec = `scenario flashy
prefill 50
warmup 5
phase calm 35
arrivals poisson rate=50
holding exp mean=1
phase crowd 20
arrivals poisson rate=50
holding exp mean=1
event flash at=2 mult=4 width=12
phase recovery 25
arrivals poisson rate=50
holding exp mean=1
`

func TestWorkloadPerPhaseStats(t *testing.T) {
	util := utility.NewAdaptive()
	scn := parseSpec(t, flashSpec)
	res, err := Run(Config{
		Server:   newServer(t, 65, util),
		Capacity: 65,
		Util:     util,
		Workload: scn,
		Seed1:    51, Seed2: 52,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("want 3 phase breakdowns, got %d", len(res.Phases))
	}
	total := 0
	for i, ps := range res.Phases {
		total += ps.Flows
		if ps.Name != scn.Phases[i].Name || ps.Start != scn.Phases[i].Start {
			t.Fatalf("phase %d labels wrong: %+v vs %+v", i, ps, scn.Phases[i])
		}
		if ps.Flows == 0 {
			t.Fatalf("phase %q measured no flows", ps.Name)
		}
	}
	if total != res.Flows {
		t.Fatalf("phase flows sum to %d, run total %d", total, res.Flows)
	}
	calm, crowd := res.Phases[0], res.Phases[1]
	if crowd.DenyRate <= calm.DenyRate {
		t.Fatalf("crowd denial %.3f not above calm %.3f", crowd.DenyRate, calm.DenyRate)
	}
	if crowd.MeanLoad <= calm.MeanLoad+10 {
		t.Fatalf("crowd mean load %.1f not clearly above calm %.1f", crowd.MeanLoad, calm.MeanLoad)
	}
	if crowd.MeanUtility >= calm.MeanUtility {
		t.Fatalf("crowd utility %.3f should dip below calm %.3f", crowd.MeanUtility, calm.MeanUtility)
	}
}

// TestWorkloadBatchedBitForBit extends the batch-coalescing equivalence
// to scenario-driven runs: batch mode must reproduce the single-frame
// run's statistics exactly, per phase included.
func TestWorkloadBatchedBitForBit(t *testing.T) {
	util := utility.NewAdaptive()
	run := func(batch int) *Result {
		res, err := Run(Config{
			Server:   newServer(t, 65, util),
			Capacity: 65,
			Util:     util,
			Workload: parseSpec(t, flashSpec),
			Batch:    batch,
			Seed1:    61, Seed2: 62,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single, batched := run(0), run(8)
	if batched.Batches == 0 || batched.BatchedOps == 0 {
		t.Fatalf("batch mode issued no bodies: %+v", batched)
	}
	a, b := *single, *batched
	a.Latency, b.Latency = batched.Latency, batched.Latency
	a.Elapsed, b.Elapsed = 0, 0
	a.Batches, a.BatchedOps = b.Batches, b.BatchedOps
	a.Attempts, b.Attempts = 0, 0 // batched bodies collapse per-op request tallies
	a.Grants, b.Grants = 0, 0
	a.Denied, b.Denied = 0, 0
	a.Teardowns, b.Teardowns = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("batched workload run diverged:\nsingle %+v\nbatch  %+v", a, b)
	}
}

// TestCrossCheckWorkload validates the per-phase oracle on the flash
// spec: calm is enforceable (prefill matches its mean), so it gets the
// full 3σ battery; crowd and recovery are transient and contribute none.
func TestCrossCheckWorkload(t *testing.T) {
	util := utility.NewAdaptive()
	scn := parseSpec(t, flashSpec)
	res, err := Run(Config{
		Server:   newServer(t, 65, util),
		Capacity: 65,
		Util:     util,
		Workload: scn,
		Seed1:    71, Seed2: 72,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := CrossCheck(res, scn, util, 65)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range cr.Checks {
		t.Logf("%-36s measured %.4f  model %.4f  z %.2f  ok %v",
			ck.Name, ck.Measured, ck.Predicted, ck.Z, ck.OK)
	}
	// The exact kmax check, 4 statistical checks for the calm phase and 2
	// exact hygiene checks.
	if len(cr.Checks) != 7 {
		t.Fatalf("want 7 checks (one enforceable phase), got %d", len(cr.Checks))
	}
	if !cr.AllOK() {
		t.Fatalf("cross-validation failed: %v", cr.Failed())
	}
	for _, ck := range cr.Checks {
		if strings.Contains(ck.Name, "crowd") || strings.Contains(ck.Name, "recovery") {
			t.Fatalf("transient phase leaked into the oracle: %q", ck.Name)
		}
	}
}

// TestCrossCheckWorkloadStationary checks the all-enforceable path on the
// baseline spec, whose single phase is the stationary M/M/∞ anchor: the
// whole run is checked once, and its report is the report of the flag
// run it reproduces.
func TestCrossCheckWorkloadStationary(t *testing.T) {
	util := utility.NewAdaptive()
	scn := loadSpecFile(t, filepath.Join("..", "..", "specs", "baseline.spec"))
	if mean, ok := scn.Stationary(); !ok || mean != 100 {
		t.Fatalf("baseline must be stationary at 100, got (%g, %v)", mean, ok)
	}
	crossCheck := func(s *workload.Scenario) *CheckReport {
		res, err := Run(Config{
			Server:   newServer(t, 100, util),
			Capacity: 100,
			Util:     util,
			Workload: s,
			Seed1:    81, Seed2: 82,
		})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := CrossCheck(res, s, util, 100)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	spec, flags := crossCheck(scn), crossCheck(stationary(t, 100, 1, 80, 0))
	if !spec.AllOK() {
		t.Fatalf("cross-validation failed: %v", spec.Failed())
	}
	if len(spec.Checks) != 7 {
		t.Fatalf("want the run battery's 7 checks, got %d", len(spec.Checks))
	}
	if !reflect.DeepEqual(spec, flags) {
		t.Fatalf("the baseline spec's report differs from the flag run's:\nspec  %+v\nflags %+v", spec, flags)
	}
}

// TestWorkloadClassTiersOnWire drives a class-mixture scenario and
// verifies the mixture reaches the wire: a tier-aware policy is not in
// play, but the harness must carry each record's tier without
// perturbing the dynamics.
func TestWorkloadClassTiersOnWire(t *testing.T) {
	util := utility.NewAdaptive()
	scn := parseSpec(t, `scenario tiers
prefill 30
warmup 3
phase p 40
arrivals poisson rate=30
holding exp mean=1
`)
	mixed := parseSpec(t, `scenario tiers
prefill 30
warmup 3
class gold weight=1 tier=1
class bulk weight=3 tier=2
phase p 40
arrivals poisson rate=30
holding exp mean=1
`)
	run := func(s *workload.Scenario) *Result {
		res, err := Run(Config{
			Server:   newServer(t, 40, util),
			Capacity: 40,
			Util:     util,
			Workload: s,
			Seed1:    91, Seed2: 92,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, withClasses := run(scn), run(mixed)
	// The class picks ride the modulation substream, so the mixture must
	// not perturb the arrival dynamics or any deterministic statistic.
	a, b := *plain, *withClasses
	a.Latency, b.Latency = withClasses.Latency, withClasses.Latency
	a.Elapsed, b.Elapsed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("class mixture perturbed the dynamics:\nplain %+v\nmixed %+v", a, b)
	}
}

func TestWorkloadConfigErrors(t *testing.T) {
	util := utility.NewAdaptive()
	scn := parseSpec(t, "scenario v\nphase p 2\narrivals poisson rate=1\nholding exp mean=1\n")
	mixed := parseSpec(t, "scenario m\nclass a weight=1 tier=1\nphase p 2\narrivals poisson rate=1\nholding exp mean=1\n")
	base := Config{
		Server:   newServer(t, 10, util),
		Capacity: 10,
		Util:     util,
		Workload: scn,
		Seed1:    1, Seed2: 2,
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no-workload", func(c *Config) { c.Workload = nil }, "need a Workload"},
		{"retries-vs-mixture", func(c *Config) { c.Workload, c.RetryAttempts = mixed, 3 }, "class-blind"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := Run(base); err != nil {
		t.Fatalf("valid workload config rejected: %v", err)
	}
}

// TestWorkloadStationaryLoadMatches sanity-checks the measured offered
// load of a short stationary scenario against its mean — the loadgen
// analogue of the simulator's occupancy test.
func TestWorkloadStationaryLoadMatches(t *testing.T) {
	util := utility.NewAdaptive()
	scn := parseSpec(t, `scenario s
prefill 20
warmup 4
phase only 84
arrivals poisson rate=20
holding exp mean=1
`)
	res, err := Run(Config{
		Server:   newServer(t, 30, util),
		Capacity: 30,
		Util:     util,
		Workload: scn,
		Seed1:    13, Seed2: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeasuredMeanLoad-20) > 2 {
		t.Fatalf("stationary offered load %.2f, want ≈ 20", res.MeasuredMeanLoad)
	}
}
