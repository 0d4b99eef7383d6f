package loadgen

import (
	"math"
	"strings"
	"testing"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// TestBatchedRunMatchesSingleFrame pins the determinism contract of the
// -batch knob: batching changes the wire framing, not the experiment.
// Requests draw no randomness and the server grants batch bodies in order,
// so a batched run must reproduce the single-frame run's statistics bit
// for bit — same flows, same denials, same occupancy distribution.
func TestBatchedRunMatchesSingleFrame(t *testing.T) {
	util := utility.NewAdaptive()
	const c = 50.0
	run := func(batch int) *Result {
		t.Helper()
		res, err := Run(Config{
			Server:   newServer(t, c, util),
			Capacity: c,
			Util:     util,
			Workload: stationary(t, 60, 1, 40, 0),
			Seed1:    7, Seed2: 7,
			Batch: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single, batched := run(0), run(16)

	if batched.Batches == 0 || batched.BatchedOps < 2*batched.Batches {
		t.Fatalf("batched run issued %d multi-op bodies carrying %d ops — batching never engaged",
			batched.Batches, batched.BatchedOps)
	}
	if single.Batches != 0 {
		t.Fatalf("single-frame run issued %d batches", single.Batches)
	}
	for _, cmp := range []struct {
		name            string
		single, batched int
	}{
		{"flows", single.Flows, batched.Flows},
		{"first-denied", single.FirstDenied, batched.FirstDenied},
		{"attempts", single.Attempts, batched.Attempts},
		{"denied", single.Denied, batched.Denied},
		{"grants", single.Grants, batched.Grants},
		{"teardowns", single.Teardowns, batched.Teardowns},
		{"peak-load", single.PeakLoad, batched.PeakLoad},
		{"anomalies", 0, batched.Anomalies},
		{"final-active", 0, batched.FinalActive},
	} {
		if cmp.single != cmp.batched {
			t.Errorf("%s: single-frame %d, batched %d", cmp.name, cmp.single, cmp.batched)
		}
	}
	if len(single.OccupancyWeights) != len(batched.OccupancyWeights) {
		t.Fatalf("occupancy support differs: %d vs %d states",
			len(single.OccupancyWeights), len(batched.OccupancyWeights))
	}
	for k := range single.OccupancyWeights {
		if math.Abs(single.OccupancyWeights[k]-batched.OccupancyWeights[k]) > 1e-12 {
			t.Fatalf("occupancy weight at k=%d diverged: %g vs %g",
				k, single.OccupancyWeights[k], batched.OccupancyWeights[k])
		}
	}
}

// TestBatchedRunSurvivesDrops exercises the batched drop/reissue path:
// survivor re-reserves travel as batch bodies and the books still close
// exactly.
func TestBatchedRunSurvivesDrops(t *testing.T) {
	util := utility.NewAdaptive()
	const c = 50.0
	res, err := Run(Config{
		Server:   newServer(t, c, util),
		Capacity: c,
		Util:     util,
		Workload: stationary(t, 60, 1, 30, 0),
		Seed1:    11, Seed2: 11,
		DropEvery: 25,
		Batch:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("drop injection never fired — the scenario tests nothing")
	}
	if res.Batches == 0 {
		t.Fatal("batching never engaged")
	}
	if res.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", res.Anomalies)
	}
	if res.FinalActive != 0 {
		t.Errorf("final active = %d, want 0", res.FinalActive)
	}
}

// TestBatchConfigValidation: the knob rejects what the wire cannot carry.
func TestBatchConfigValidation(t *testing.T) {
	util := utility.NewAdaptive()
	base := func() Config {
		return Config{
			Server:   newServer(t, 10, util),
			Capacity: 10,
			Util:     util,
			Workload: stationary(t, 5, 1, 2, 0),
			Seed1:    1, Seed2: 1,
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"oversized", func(c *Config) { c.Batch = resv.MaxBatch + 1 }, "batch"},
		{"negative", func(c *Config) { c.Batch = -1 }, "batch"},
		{"udp", func(c *Config) { c.Batch = 4; c.Transport = "udp" }, "udp"},
		{"retries", func(c *Config) { c.Batch = 4; c.RetryAttempts = 3 }, "retry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatalf("config %+v accepted", tc.name)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
