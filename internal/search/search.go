// Package search grid-searches admission-policy knobs over the discrete-event
// simulator and the live load harness, cross-validating every grid cell that
// has a closed-form counterpart against the analytical model.
//
// The two modes measure different systems on purpose:
//
//   - "live" drives a real resv.Server through internal/loadgen. Denied flows
//     stay in the offered population and re-request as capacity frees, so the
//     offered load is M/M/∞ with Poisson occupancy and an arriving flow is
//     denied exactly when the standing population is at the policy's limit L:
//     the counterpart is P(pop ≥ L) = TailProb(L−1) by PASTA. Live mode is
//     restricted to clock-free policies (counting, tiered), because the
//     harness compresses virtual time while the server's policy clock is wall
//     time.
//   - "sim" runs internal/sim with the policy plugged into the arrival path
//     (1 virtual second = 1e9 policy nanoseconds, so clocked policies see
//     honest time). Rejected flows leave, so admission is an M/M/L/L loss
//     system and the per-attempt blocking counterpart is the Erlang loss
//     formula B(L, k̄) = PMF(L)/CDF(L) under Poisson load.
//
// Cells without a counterpart (token-bucket shedding, a measured gate that
// can bind below its hard bound) are still measured and reported — with the
// token bucket's calibration verdict attached, so a miscalibrated bucket that
// degenerates into load shedding (SNIPPETS.md's 96%-rejection pathology) is
// flagged rather than silently swept over.
package search

import (
	"context"
	"fmt"

	"beqos/internal/dist"
	"beqos/internal/loadgen"
	"beqos/internal/policy"
	"beqos/internal/resv"
	"beqos/internal/rng"
	"beqos/internal/sim"
	"beqos/internal/sweep"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// SigmaBound is the acceptance threshold for checked cells, shared with the
// load harness's cross-validation.
const SigmaBound = loadgen.SigmaBound

// cellStream offsets each grid cell's rng.Substream index so cells draw
// decorrelated seeds from the spec seed.
const cellStream = 0xbb67ae85

// Spec describes one policy grid search. K1 and K2 are the policy's two
// knobs; their meaning depends on the policy:
//
//	counting, bandwidth:  none (leave empty)
//	tiered:        K1 = standard-class limit as a fraction of kmax,
//	               K2 = sheddable-class limit as a fraction of kmax
//	token-bucket:  K1 = refill rate (admissions per virtual second),
//	               K2 = burst (bucket depth)
//	measured:      K1 = occupancy target as a fraction of kmax,
//	               K2 = estimator time constant τ (virtual seconds)
//
// A knob value ≤ 0 (or an empty grid) selects the policy's neutral default.
type Spec struct {
	// Policy names the admission policy under search: counting, bandwidth,
	// token-bucket, tiered, or measured.
	Policy string
	// Capacity and Util describe the link; KMax = 0 derives the critical
	// threshold kmax(C) from the utility function.
	Capacity float64
	Util     utility.Function
	KMax     int
	// Rate and Hold set the offered dynamics (k̄ = Rate·Hold), Duration the
	// measured horizon, all in virtual time units.
	Rate, Hold float64
	Duration   float64
	// Mode selects the measurement plane: "live" (loadgen against a real
	// server; clock-free policies only) or "sim" (the default).
	Mode string
	// Replicates is the number of independent sim replications per cell
	// (default 4, minimum 2). Live cells are single runs with batch-means
	// errors.
	Replicates int
	// K1, K2 are the knob grids; the search visits their cross product.
	K1, K2 []float64
	// Seed1, Seed2 seed the search; identical specs produce identical
	// reports.
	Seed1, Seed2 uint64
	// Workers bounds cell-level parallelism (0 = GOMAXPROCS).
	Workers int
}

// Cell is one grid point's outcome.
type Cell struct {
	// K1, K2 are the knob values and Limit the effective admission limit L
	// the knobs imply for the offered (standard-class) traffic.
	K1, K2 float64
	Limit  int
	// Blocking is the measured blocking probability — arriving-flow denial
	// rate in live mode, per-attempt rejection rate in sim mode — with its
	// standard error: batch-means live, across replications in sim mode,
	// or, for a checked cell where that is 0 and Blocking is off its
	// prediction, the binomial error over Flows (loadgen.CheckRare).
	Blocking float64
	Sigma    float64
	// Predicted is the analytical counterpart when Checked (TailProb(L−1)
	// live, Erlang B(L, k̄) sim); Z is |Blocking−Predicted|/Sigma.
	Predicted float64
	Z         float64
	Checked   bool
	// OK is true when the cell is unchecked or within SigmaBound, with zero
	// anomalies and no residual reservations.
	OK bool
	// MeanUtility is the measured per-flow utility.
	MeanUtility float64
	// Flows counts measured flows and Anomalies protocol contradictions
	// (live mode; always 0 in sim mode).
	Flows     int
	Anomalies int
	// ShedFraction and Degenerate carry the token bucket's calibration
	// verdict (zero-valued for other policies).
	ShedFraction float64
	Degenerate   bool
}

// Report is a completed policy search.
type Report struct {
	// Policy and Mode echo the spec; KMax is the resolved critical
	// threshold and MeanLoad the offered k̄.
	Policy   string
	Mode     string
	KMax     int
	MeanLoad float64
	// Cells holds one entry per (K1, K2) grid point, in grid order.
	Cells []Cell
}

// AllOK reports whether every cell passed (unchecked cells pass unless they
// recorded anomalies).
func (r *Report) AllOK() bool {
	for _, c := range r.Cells {
		if !c.OK {
			return false
		}
	}
	return true
}

// Checked counts cells with an analytical counterpart.
func (r *Report) Checked() int {
	n := 0
	for _, c := range r.Cells {
		if c.Checked {
			n++
		}
	}
	return n
}

// withDefaults validates the spec and resolves kmax.
func (s Spec) withDefaults() (Spec, int, error) {
	if !(s.Capacity > 0) {
		return s, 0, fmt.Errorf("search: capacity must be positive, got %g", s.Capacity)
	}
	if s.Util == nil {
		return s, 0, fmt.Errorf("search: utility must be non-nil")
	}
	if !(s.Rate > 0) || !(s.Hold > 0) {
		return s, 0, fmt.Errorf("search: need positive rate and holding time, got (%g, %g)", s.Rate, s.Hold)
	}
	if !(s.Duration > 0) {
		return s, 0, fmt.Errorf("search: duration must be positive, got %g", s.Duration)
	}
	switch s.Mode {
	case "":
		s.Mode = "sim"
	case "sim":
	case "live":
		switch s.Policy {
		case "counting", "tiered":
		default:
			return s, 0, fmt.Errorf("search: live mode compresses virtual time and is only valid for clock-free policies (counting, tiered), not %q", s.Policy)
		}
	default:
		return s, 0, fmt.Errorf("search: unknown mode %q (want live or sim)", s.Mode)
	}
	switch s.Policy {
	case "counting", "bandwidth", "token-bucket", "tiered", "measured":
	default:
		return s, 0, fmt.Errorf("search: unknown policy %q", s.Policy)
	}
	if s.Replicates == 0 {
		s.Replicates = 4
	}
	if s.Replicates < 2 {
		return s, 0, fmt.Errorf("search: need at least 2 replicates, got %d", s.Replicates)
	}
	if len(s.K1) == 0 {
		s.K1 = []float64{0}
	}
	if len(s.K2) == 0 {
		s.K2 = []float64{0}
	}
	kmax := s.KMax
	if kmax == 0 {
		k, ok := utility.KMax(s.Util, s.Capacity)
		if !ok {
			return s, 0, fmt.Errorf("search: utility %q has no finite kmax; set KMax explicitly", s.Util.Name())
		}
		kmax = k
	}
	if kmax < 1 {
		return s, 0, fmt.Errorf("search: kmax must be ≥ 1, got %d", kmax)
	}
	return s, kmax, nil
}

// knobLimit turns a fractional knob into an integer limit in [1, max];
// values outside (0, 1) mean "the full limit".
func knobLimit(frac float64, max int) int {
	if !(frac > 0) || frac >= 1 {
		return max
	}
	l := int(frac*float64(max) + 0.5)
	if l < 1 {
		l = 1
	}
	if l > max {
		l = max
	}
	return l
}

// buildPolicy constructs one fresh policy instance for a grid cell and
// returns it with the effective standard-traffic admission limit L and
// whether the cell has an analytical counterpart.
func (s *Spec) buildPolicy(kmax int, k1, k2 float64) (policy.Policy, int, bool, error) {
	switch s.Policy {
	case "counting":
		p, err := policy.NewCounting(s.Capacity, kmax)
		return p, kmax, true, err
	case "bandwidth":
		// Offered flows request unit rate, so the capacity bound admits
		// floor(C) of them.
		p, err := policy.NewBandwidth(s.Capacity)
		return p, int(s.Capacity), true, err
	case "tiered":
		std := knobLimit(k1, kmax)
		shed := knobLimit(k2, kmax)
		if shed > std {
			shed = std
		}
		p, err := policy.NewTiered(s.Capacity, kmax, std, shed)
		// The harness offers standard-class traffic, so the standard tier
		// is the binding limit.
		return p, std, true, err
	case "token-bucket":
		inner, err := policy.NewCounting(s.Capacity, kmax)
		if err != nil {
			return nil, 0, false, err
		}
		rate, burst := k1, k2
		if !(rate > 0) {
			rate = s.Rate
		}
		if !(burst > 0) {
			burst = float64(kmax)
		}
		p, err := policy.NewTokenBucket(inner, rate, burst)
		// Rate-based shedding has no occupancy-only closed form; the cell
		// is measured and calibration-checked, not σ-gated.
		return p, kmax, false, err
	case "measured":
		tf := k1
		if !(tf > 0) {
			tf = 1
		}
		target := tf * float64(kmax)
		tau := k2
		if !(tau > 0) {
			tau = s.Hold
		}
		p, err := policy.NewMeasured(s.Capacity, kmax, target, tau)
		// With target ≥ kmax+1 the estimator gate can never bind (the
		// occupancy estimate is ≤ kmax), so the policy is exactly counting
		// and the Erlang counterpart applies.
		return p, kmax, target >= float64(kmax)+1, err
	default:
		return nil, 0, false, fmt.Errorf("search: unknown policy %q", s.Policy)
	}
}

// Run executes the grid search.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	s, kmax, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	kbar := s.Rate * s.Hold
	pois, err := dist.NewPoisson(kbar)
	if err != nil {
		return nil, err
	}
	type point struct {
		i      int
		k1, k2 float64
	}
	var points []point
	for _, k1 := range s.K1 {
		for _, k2 := range s.K2 {
			points = append(points, point{i: len(points), k1: k1, k2: k2})
		}
	}
	cells, err := sweep.Map(ctx, s.Workers, points, func(p point) (Cell, error) {
		seed1, seed2 := rng.Substream(s.Seed1, s.Seed2, cellStream+uint64(p.i))
		if s.Mode == "live" {
			return s.runLive(kmax, p.k1, p.k2, pois, seed1, seed2)
		}
		return s.runSim(kmax, p.k1, p.k2, pois, seed1, seed2)
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Policy:   s.Policy,
		Mode:     s.Mode,
		KMax:     kmax,
		MeanLoad: kbar,
		Cells:    cells,
	}, nil
}

// check fills c's OK and, for a checked cell, its Predicted, Sigma and Z:
// the load harness's tail check of the measured blocking against
// predicted over the cell's flows, so a cell that saw no blocking is held
// to the binomial sigma. A cell with anomalies fails either way.
func (c *Cell) check(predicted float64) {
	c.OK = c.Anomalies == 0
	if !c.Checked {
		return
	}
	ck := loadgen.CheckRare("blocking", c.Blocking, predicted, c.Sigma, c.Flows)
	c.Predicted, c.Sigma, c.Z = predicted, ck.Sigma, ck.Z
	c.OK = c.OK && ck.OK
}

// runLive measures one cell against a real server through the load harness.
func (s *Spec) runLive(kmax int, k1, k2 float64, pois dist.Poisson, seed1, seed2 uint64) (Cell, error) {
	pol, limit, checked, err := s.buildPolicy(kmax, k1, k2)
	if err != nil {
		return Cell{}, err
	}
	srv, err := resv.NewServerPolicy(pol, 0)
	if err != nil {
		return Cell{}, err
	}
	defer srv.Close()
	scn, err := loadgen.Stationary(s.Rate, s.Hold, s.Duration, 0)
	if err != nil {
		return Cell{}, err
	}
	res, err := loadgen.Run(loadgen.Config{
		Server:       srv,
		Capacity:     s.Capacity,
		Util:         s.Util,
		Workload:     scn,
		Seed1:        seed1,
		Seed2:        seed2,
		PolicyDenies: limit < kmax,
	})
	if err != nil {
		return Cell{}, fmt.Errorf("search: live cell (%g, %g): %w", k1, k2, err)
	}
	cell := Cell{
		K1: k1, K2: k2, Limit: limit, Checked: checked,
		Blocking:    res.DenyRate,
		Sigma:       res.DenySigma,
		MeanUtility: res.MeanUtility,
		Flows:       res.Flows,
		Anomalies:   res.Anomalies,
	}
	if res.FinalActive != 0 {
		cell.Anomalies++ // residual reservations after cleanup
	}
	// An arriving flow is denied exactly when the standing Poisson
	// population already fills the limit: P(pop ≥ L) by PASTA.
	cell.check(pois.TailProb(limit - 1))
	if cell.Checked && limit == kmax {
		// At full limit the policy must be behaviorally identical to plain
		// counting admission; hold it to the complete cross-validation
		// (blocking, utility R(C), offered load, protocol hygiene).
		cr, err := loadgen.CrossCheck(res, scn, s.Util, s.Capacity)
		if err != nil {
			return Cell{}, err
		}
		if !cr.AllOK() {
			cell.OK = false
		}
	}
	return cell, nil
}

// runSim measures one cell over independent simulator replications, each
// with a fresh policy instance (policies are stateful).
func (s *Spec) runSim(kmax int, k1, k2 float64, pois dist.Poisson, seed1, seed2 uint64) (Cell, error) {
	warmup := 5 * s.Hold
	scn, err := workload.OnePhase(0, warmup, warmup+s.Duration,
		workload.ArrivalSpec{Kind: "poisson", Rate: s.Rate}, workload.HoldSpec{Kind: "exp", Mean: s.Hold})
	if err != nil {
		return Cell{}, err
	}
	var limit int
	var checked bool
	blk := make([]float64, s.Replicates)
	util := make([]float64, s.Replicates)
	flows := 0
	var decisions, sheds uint64
	degenerate := false
	for i := 0; i < s.Replicates; i++ {
		pol, l, ck, err := s.buildPolicy(kmax, k1, k2)
		if err != nil {
			return Cell{}, err
		}
		limit, checked = l, ck
		r1, r2 := rng.Substream(seed1, seed2, uint64(i))
		res, err := sim.Run(sim.Config{
			Capacity:  s.Capacity,
			Util:      s.Util,
			Policy:    sim.Reservation,
			KMax:      kmax,
			Admission: pol,
			Workload:  scn,
			Seed1:     r1,
			Seed2:     r2,
		})
		if err != nil {
			return Cell{}, fmt.Errorf("search: sim cell (%g, %g) replicate %d: %w", k1, k2, i, err)
		}
		blk[i] = res.BlockingRate
		util[i] = res.MeanUtility
		flows += res.Flows
		if tb, ok := pol.(*policy.TokenBucket); ok {
			cal := tb.Calibration()
			decisions += cal.Decisions
			sheds += cal.Sheds
			degenerate = degenerate || cal.Degenerate
		}
	}
	b := sim.Summarize(blk)
	cell := Cell{
		K1: k1, K2: k2, Limit: limit, Checked: checked,
		Blocking:    b.Mean,
		Sigma:       b.StdErr,
		MeanUtility: sim.Summarize(util).Mean,
		Flows:       flows,
		Degenerate:  degenerate,
	}
	if decisions > 0 {
		cell.ShedFraction = float64(sheds) / float64(decisions)
	}
	// Rejected flows leave the system, so admission is the M/M/L/L loss
	// system and per-attempt blocking is the Erlang loss probability.
	cell.check(pois.PMF(limit) / pois.CDF(limit))
	return cell, nil
}
