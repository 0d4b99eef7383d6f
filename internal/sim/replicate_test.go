package sim

import (
	"runtime"
	"testing"
	"time"
)

// replicationConfigs covers every policy/retry/sampling shape the
// simulator supports; parallel replication must be byte-identical to
// sequential on all of them.
func replicationConfigs(t *testing.T) map[string]Config {
	t.Helper()
	short := func(policy Policy, seed uint64) Config {
		cfg := mmInfConfig(t, 115, policy, seed)
		cfg.Workload = mmInf(t, 1500, 100)
		return cfg
	}
	cfgs := map[string]Config{
		"best-effort/S1":       short(BestEffort, 3),
		"reservation/S1":       short(Reservation, 5),
		"best-effort/timeavg":  short(BestEffort, 7),
		"best-effort/S10":      short(BestEffort, 9),
		"reservation/retrying": short(Reservation, 11),
	}
	c := cfgs["best-effort/timeavg"]
	c.Samples = 0
	cfgs["best-effort/timeavg"] = c
	c = cfgs["best-effort/S10"]
	c.Samples = 10
	cfgs["best-effort/S10"] = c
	c = cfgs["reservation/retrying"]
	c.Retry = &RetryConfig{MeanBackoff: 5, Penalty: 0.1, MaxAttempts: 20}
	cfgs["reservation/retrying"] = c

	cfgs["heavy-tail/S1"] = Config{
		Capacity: 1e9, Util: rigidFn(t), Policy: BestEffort,
		Workload: sessions(t, 1500, 100, 2, 2, 8), Samples: 1,
		Seed1: 13, Seed2: 14,
	}
	return cfgs
}

// TestParallelReplicationsByteIdentical is the determinism contract of the
// parallel fan-out: every worker count yields the exact same bits as the
// sequential path, because each replicate's seeds come from
// rng.Substream(base, i) and reduction is in index order.
func TestParallelReplicationsByteIdentical(t *testing.T) {
	for name, cfg := range replicationConfigs(t) {
		seq, err := RunReplicationsWorkers(cfg, 6, 1)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, workers := range []int{2, 4, 0} {
			par, err := RunReplicationsWorkers(cfg, 6, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if par != seq {
				t.Errorf("%s: workers=%d result differs from sequential:\n  par %+v\n  seq %+v",
					name, workers, par, seq)
			}
		}
	}
}

// TestParallelReplicationsSpeedup measures the fan-out win on multi-core
// hosts. Timing-based, so it only runs where the win must exist (≥ 4
// cores) and asserts a conservative 2x for an embarrassingly parallel
// workload; single-core CI exercises correctness via the tests above.
func TestParallelReplicationsSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥ 4 cores, have %d", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := mmInfConfig(t, 120, BestEffort, 17)
	cfg.Workload = mmInf(t, 4000, 200)
	start := time.Now()
	seq, err := RunReplicationsWorkers(cfg, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	seqDur := time.Since(start)
	start = time.Now()
	par, err := RunReplicationsWorkers(cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	parDur := time.Since(start)
	if par != seq {
		t.Fatalf("parallel result differs from sequential")
	}
	if speedup := float64(seqDur) / float64(parDur); speedup < 2 {
		t.Errorf("8 replications on %d cores sped up only %.2fx (seq %v, par %v)",
			runtime.GOMAXPROCS(0), speedup, seqDur, parDur)
	}
}
