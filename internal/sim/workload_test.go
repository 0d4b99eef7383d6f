package sim

import (
	"math"
	"strings"
	"testing"

	"beqos/internal/rng"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

const simWorkloadSpec = `scenario simwl
prefill 50
warmup 5
phase steady 45
arrivals poisson rate=50
holding exp mean=1
phase crowd 20
arrivals poisson rate=50
holding exp mean=1
event flash at=2 mult=4 width=10
phase tail 15
arrivals gamma rate=30 cv=2
holding pareto mean=1 shape=2
`

func parseSpec(t *testing.T, text string) *workload.Scenario {
	t.Helper()
	s, err := workload.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestWorkloadRunBestEffort(t *testing.T) {
	scn := parseSpec(t, simWorkloadSpec)
	cfg := Config{
		Capacity: 100,
		Util:     utility.NewAdaptive(),
		Policy:   BestEffort,
		Workload: scn,
		Seed1:    1, Seed2: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Flows == 0 || res.Rejected != 0 || res.Admitted != res.Flows {
		t.Fatalf("best-effort workload run: %+v", res)
	}
	if len(res.PhaseFlows) != 3 {
		t.Fatalf("want 3 phase tallies, got %v", res.PhaseFlows)
	}
	total := 0
	for i, n := range res.PhaseFlows {
		total += n
		if res.PhaseAdmitted[i]+res.PhaseRejected[i] != n {
			t.Fatalf("phase %d fates don't partition: %d + %d != %d",
				i, res.PhaseAdmitted[i], res.PhaseRejected[i], n)
		}
	}
	if total != res.Flows {
		t.Fatalf("phase tallies sum to %d, res.Flows %d", total, res.Flows)
	}
	// The flash crowd quadruples the rate for half the crowd phase: its
	// per-time arrival count must clearly exceed the steady phase's.
	steadyRate := float64(res.PhaseFlows[0]) / (45 - 5) // warmup eats 5 of phase 0
	crowdRate := float64(res.PhaseFlows[1]) / 20
	if crowdRate < 1.5*steadyRate {
		t.Fatalf("flash crowd not visible: steady %.1f/s vs crowd %.1f/s", steadyRate, crowdRate)
	}
}

func TestWorkloadRunReservation(t *testing.T) {
	scn := parseSpec(t, simWorkloadSpec)
	cfg := Config{
		Capacity: 60,
		Util:     utility.NewAdaptive(),
		Policy:   Reservation,
		KMax:     60,
		Workload: scn,
		Seed1:    3, Seed2: 4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rejected == 0 {
		t.Fatal("a flash crowd over kmax=60 must reject some flows")
	}
	// Rejections should concentrate in the crowd phase.
	if res.PhaseRejected[1] <= res.PhaseRejected[0] {
		t.Fatalf("crowd-phase rejections %d not above steady %d", res.PhaseRejected[1], res.PhaseRejected[0])
	}
}

// TestWorkloadStationaryOccupancy cross-checks the workload-driven
// simulator against M/M/∞: a stationary Poisson scenario's average
// occupancy under best-effort must sit within a few standard errors of
// the offered mean.
func TestWorkloadStationaryOccupancy(t *testing.T) {
	scn := parseSpec(t, `scenario stat
prefill 40
warmup 10
phase only 410
arrivals poisson rate=40
holding exp mean=1
`)
	cfg := Config{
		Capacity: 100,
		Util:     utility.NewAdaptive(),
		Policy:   BestEffort,
		Workload: scn,
		Seed1:    7, Seed2: 8,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Var of the time-average of an M/M/∞ population over T ≫ hold is
	// ≈ 2·k̄·hold/T; 40·2/400 → σ ≈ 0.45. Allow 5σ.
	if math.Abs(res.AvgOccupancy-40) > 2.5 {
		t.Fatalf("stationary occupancy %g, want ≈ 40", res.AvgOccupancy)
	}
}

func TestWorkloadClassesAndMixture(t *testing.T) {
	scn := parseSpec(t, `scenario mix
prefill 20
warmup 2
class big weight=1 demand=2
class small weight=3
phase p 42
arrivals poisson rate=20
holding exp mean=1
`)
	cfg := Config{
		Capacity: 50,
		Util:     utility.NewAdaptive(),
		Policy:   BestEffort,
		Workload: scn,
		Seed1:    5, Seed2: 6,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.ClassFlows) != 2 {
		t.Fatalf("want 2 class tallies, got %v", res.ClassFlows)
	}
	frac := float64(res.ClassFlows[1]) / float64(res.ClassFlows[0]+res.ClassFlows[1])
	if math.Abs(frac-0.75) > 0.08 {
		t.Fatalf("class mixture off: small fraction %g, want ≈ 0.75", frac)
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	scn := parseSpec(t, "scenario v\nphase p 2\narrivals poisson rate=1\nholding exp mean=1\n")
	base := Config{
		Capacity: 10,
		Util:     utility.NewAdaptive(),
		Workload: scn,
		Seed1:    1, Seed2: 2,
	}

	bad := base
	bad.Classes = []utility.Function{utility.NewAdaptive()}
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "class utilities") {
		t.Fatalf("class utilities for a classless scenario accepted: %v", err)
	}
	bad = base
	bad.Util = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("workload run without Util accepted")
	}
	if _, err := Run(base); err != nil {
		t.Fatalf("valid workload config rejected: %v", err)
	}
}

// TestWorkloadReplicationsDeterministic is the parallel-vs-sequential leg
// of the golden-determinism contract: replicated workload runs must be
// byte-identical for every worker count, and each replicate's arrival
// trace must equal the trace of a directly substream-seeded stream.
func TestWorkloadReplicationsDeterministic(t *testing.T) {
	scn := parseSpec(t, simWorkloadSpec)
	cfg := Config{
		Capacity: 80,
		Util:     utility.NewAdaptive(),
		Policy:   Reservation,
		KMax:     80,
		Workload: scn,
		Seed1:    11, Seed2: 12,
	}
	seq, err := RunReplicationsWorkers(cfg, 4, 1)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := RunReplicationsWorkers(cfg, 4, 4)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq != par {
		t.Fatalf("replication summaries differ:\nseq %+v\npar %+v", seq, par)
	}
}

// TestWorkloadSimSourceOffStream: in a workload run the simulator's own
// draws (§5.1 sample instants, retry backoffs) come from a source of their
// own. Seeded like the stream's primary source, they would replay its
// variates — the k-th retry backoff of a Poisson/exponential spec would be
// the k-th stream draw, rescaled.
func TestWorkloadSimSourceOffStream(t *testing.T) {
	cfg := Config{
		Capacity: 100,
		Util:     utility.NewAdaptive(),
		Policy:   Reservation,
		Workload: parseSpec(t, simWorkloadSpec),
		Samples:  4,
		Retry:    &RetryConfig{MeanBackoff: 1, MaxAttempts: 3},
		Seed1:    1, Seed2: 2,
	}
	s, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	primary := rng.New(cfg.Seed1, cfg.Seed2)
	same := 0
	for i := 0; i < 64; i++ {
		if s.src.Float64() == primary.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d of 64 simulator draws equal the workload stream's primary draws", same)
	}
}
