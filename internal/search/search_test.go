package search

import (
	"context"
	"testing"

	"beqos/internal/utility"
)

func rigid(t *testing.T, bhat float64) utility.Function {
	t.Helper()
	u, err := utility.NewRigid(bhat)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSpecValidation(t *testing.T) {
	base := Spec{
		Policy:   "counting",
		Capacity: 8,
		Util:     rigid(t, 1),
		Rate:     12,
		Hold:     0.5,
		Duration: 10,
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unknown policy", func(s *Spec) { s.Policy = "fifo" }},
		{"unknown mode", func(s *Spec) { s.Mode = "dream" }},
		{"clocked policy live", func(s *Spec) { s.Policy = "token-bucket"; s.Mode = "live" }},
		{"measured live", func(s *Spec) { s.Policy = "measured"; s.Mode = "live" }},
		{"no capacity", func(s *Spec) { s.Capacity = 0 }},
		{"no utility", func(s *Spec) { s.Util = nil }},
		{"one replicate", func(s *Spec) { s.Replicates = 1 }},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		if _, err := Run(context.Background(), s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSimCountingMatchesErlang pins the sim-mode oracle: plain counting
// admission in the simulator is an M/M/kmax/kmax loss system, so its
// per-attempt blocking must land within 3σ of the Erlang loss formula.
func TestSimCountingMatchesErlang(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Policy:   "counting",
		Capacity: 8,
		Util:     rigid(t, 1),
		Rate:     12,
		Hold:     0.5,
		Duration: 300,
		Mode:     "sim",
		Seed1:    21, Seed2: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || !rep.Cells[0].Checked {
		t.Fatalf("want one checked cell, got %+v", rep.Cells)
	}
	c := rep.Cells[0]
	if !c.OK {
		t.Errorf("blocking %.4f ± %.4f vs Erlang %.4f (z = %.2f)", c.Blocking, c.Sigma, c.Predicted, c.Z)
	}
	if c.Limit != 8 {
		t.Errorf("limit = %d, want kmax 8", c.Limit)
	}
}

// TestLightLoadCellsPass runs one counting cell in each mode at a load so
// light that it measures no blocking at all while the model predicts a
// small nonzero probability. Its zero batch-means or replication sigma
// must give way to the binomial one over the cell's flows (the load
// harness's CheckRare), and the live cell's full cross-validation must
// hold too.
func TestLightLoadCellsPass(t *testing.T) {
	for _, tc := range []struct {
		mode string
		mean float64
	}{{"live", 2}, {"sim", 1}} {
		rep, err := Run(context.Background(), Spec{
			Policy:   "counting",
			Capacity: 8,
			Util:     rigid(t, 1),
			Rate:     tc.mean / 0.5,
			Hold:     0.5,
			Duration: 200,
			Mode:     tc.mode,
			Seed1:    1, Seed2: 1 ^ 0x9e3779b97f4a7c15,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Cells[0]
		if c.Blocking != 0 || !(c.Predicted > 0) {
			t.Fatalf("%s: blocking %g against %g; the case needs a cell that saw none of a nonzero prediction", tc.mode, c.Blocking, c.Predicted)
		}
		if !c.OK || !(c.Sigma > 0) || c.Z > SigmaBound {
			t.Errorf("%s: blocking %.4f ± %.4f vs predicted %.4g (z = %.2f): want a pass on the binomial sigma", tc.mode, c.Blocking, c.Sigma, c.Predicted, c.Z)
		}
	}
}

// TestLiveTieredCrossValidates runs the tiered policy against a real server:
// the full-limit cell must pass the complete model cross-validation (it is
// behaviorally plain counting) and the half-limit cell must match the
// PASTA counterpart P(pop ≥ L) at its reduced standard-class limit.
func TestLiveTieredCrossValidates(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Policy:   "tiered",
		Capacity: 8,
		Util:     rigid(t, 1),
		Rate:     12,
		Hold:     0.5,
		Duration: 60,
		Mode:     "live",
		K1:       []float64{1, 0.5},
		Seed1:    5, Seed2: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(rep.Cells))
	}
	full, half := rep.Cells[0], rep.Cells[1]
	if full.Limit != 8 || half.Limit != 4 {
		t.Fatalf("limits = (%d, %d), want (8, 4)", full.Limit, half.Limit)
	}
	for _, c := range rep.Cells {
		if !c.Checked {
			t.Errorf("cell L=%d has a counterpart but was not checked", c.Limit)
		}
		if !c.OK {
			t.Errorf("cell L=%d: blocking %.4f ± %.4f vs predicted %.4f (z = %.2f, anomalies %d)",
				c.Limit, c.Blocking, c.Sigma, c.Predicted, c.Z, c.Anomalies)
		}
	}
	if half.Blocking <= full.Blocking {
		t.Errorf("halving the standard tier did not raise blocking: %.4f vs %.4f", half.Blocking, full.Blocking)
	}
}

// TestTokenBucketDegenerateFlagged starves the bucket so nearly every
// request sheds: the search must surface the calibration pathology instead
// of reporting a quietly useless cell.
func TestTokenBucketDegenerateFlagged(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Policy:   "token-bucket",
		Capacity: 8,
		Util:     rigid(t, 1),
		Rate:     12,
		Hold:     0.5,
		Duration: 100,
		Mode:     "sim",
		K1:       []float64{0.01}, // refill far below the arrival rate
		K2:       []float64{1},
		Seed1:    3, Seed2: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Checked {
		t.Error("token-bucket shedding has no closed-form counterpart; cell must be unchecked")
	}
	if !c.Degenerate {
		t.Errorf("starved bucket not flagged degenerate (shed fraction %.3f)", c.ShedFraction)
	}
	if c.ShedFraction < 0.9 {
		t.Errorf("shed fraction = %.3f, want ≥ 0.9 for a starved bucket", c.ShedFraction)
	}
}

// TestSearchDeterministic demands identical reports for identical specs.
func TestSearchDeterministic(t *testing.T) {
	spec := Spec{
		Policy:   "measured",
		Capacity: 8,
		Util:     rigid(t, 1),
		Rate:     12,
		Hold:     0.5,
		Duration: 50,
		Mode:     "sim",
		K1:       []float64{0.8, 1.5},
		K2:       []float64{0.25},
		Seed1:    1, Seed2: 2,
	}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d differs between identical searches:\n%+v\n%+v", i, a.Cells[i], b.Cells[i])
		}
	}
	// target 1.5·kmax ≥ kmax+1: the gate can never bind, so the cell is
	// checked; target 0.8·kmax binds below the hard bound and is not.
	if a.Cells[0].Checked || !a.Cells[1].Checked {
		t.Errorf("checked flags = (%v, %v), want (false, true)", a.Cells[0].Checked, a.Cells[1].Checked)
	}
}
