package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"beqos"
	"beqos/internal/policy"
	"beqos/internal/report"
	"beqos/internal/search"
	"beqos/internal/utility"
)

// parseUtility maps a -util flag value onto an admission-capable utility.
func parseUtility(name string) (utility.Function, error) {
	switch name {
	case "rigid":
		return utility.NewRigid(1)
	case "adaptive":
		return utility.NewAdaptive(), nil
	}
	return nil, utilityError(name)
}

// modelUtility is parseUtility's twin for the subcommands built on the
// facade, and returns its type. With elastic set it also takes elastic:
// the analytical subcommands' model does without a finite kmax.
func modelUtility(name string, elastic bool) (beqos.Utility, error) {
	switch {
	case name == "rigid":
		return beqos.RigidUtility(), nil
	case name == "adaptive":
		return beqos.AdaptiveUtility(), nil
	case name == "elastic" && elastic:
		return beqos.ElasticUtility(), nil
	}
	return beqos.Utility{}, utilityError(name)
}

// utilityError is every subcommand's answer to a -util name it refuses.
func utilityError(name string) error {
	if name == "elastic" {
		return fmt.Errorf("utility elastic has no finite kmax; admission control needs one")
	}
	return fmt.Errorf("unknown utility %q (want rigid, adaptive or elastic)", name)
}

// policyKnobs carries the per-policy tuning flags of `serve -policy`.
type policyKnobs struct {
	tbRate, tbBurst             float64
	tierStandard, tierSheddable int
	measureTarget, measureTau   float64
}

// registerPolicyKnobs declares the knob flags on fs and returns the struct
// they land in.
func registerPolicyKnobs(fs *flag.FlagSet) *policyKnobs {
	kn := &policyKnobs{}
	fs.Float64Var(&kn.tbRate, "tb-rate", 0, "token-bucket refill rate, admissions per second (required with -policy token-bucket)")
	fs.Float64Var(&kn.tbBurst, "tb-burst", 0, "token-bucket burst depth (0 = kmax)")
	fs.IntVar(&kn.tierStandard, "tier-standard", 0, "tiered: standard-class admission limit (0 = kmax)")
	fs.IntVar(&kn.tierSheddable, "tier-sheddable", 0, "tiered: sheddable-class admission limit (0 = the standard limit)")
	fs.Float64Var(&kn.measureTarget, "measure-target", 0, "measured: occupancy target the estimator gates on (0 = kmax)")
	fs.Float64Var(&kn.measureTau, "measure-tau", 0, "measured: occupancy-estimator time constant in seconds (0 = 30)")
	return kn
}

// buildServePolicy constructs the admission policy `serve -policy` names.
func buildServePolicy(name string, capacity float64, util utility.Function, kn *policyKnobs) (policy.Policy, error) {
	if name == "bandwidth" {
		return policy.NewBandwidth(capacity)
	}
	kmax, ok := utility.KMax(util, capacity)
	if !ok {
		return nil, fmt.Errorf("utility %q has no finite kmax at capacity %g", util.Name(), capacity)
	}
	switch name {
	case "counting":
		return policy.NewCounting(capacity, kmax)
	case "token-bucket":
		inner, err := policy.NewCounting(capacity, kmax)
		if err != nil {
			return nil, err
		}
		if !(kn.tbRate > 0) {
			return nil, fmt.Errorf("-policy token-bucket needs -tb-rate > 0 (admissions per second)")
		}
		burst := kn.tbBurst
		if burst == 0 {
			burst = float64(kmax)
		}
		return policy.NewTokenBucket(inner, kn.tbRate, burst)
	case "tiered":
		std, shed := kn.tierStandard, kn.tierSheddable
		if std == 0 {
			std = kmax
		}
		if shed == 0 {
			shed = std
		}
		return policy.NewTiered(capacity, kmax, std, shed)
	case "measured":
		target := kn.measureTarget
		if target == 0 {
			target = float64(kmax)
		}
		tau := kn.measureTau
		if tau == 0 {
			tau = 30
		}
		return policy.NewMeasured(capacity, kmax, target, tau)
	default:
		return nil, fmt.Errorf("unknown policy %q (want counting, bandwidth, token-bucket, tiered, or measured)", name)
	}
}

// parseFloats parses a comma-separated knob grid.
func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("knob grid %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// cmdSweepPolicy grid-searches an admission policy's knobs over the
// simulator or the live load harness and cross-validates every cell that
// has a closed-form counterpart. It exits non-zero when a checked cell
// falls outside the 3σ bound or any cell records protocol anomalies, so
// `sweep-policy -quick` doubles as a CI smoke for the policy plane.
func cmdSweepPolicy(args []string) error {
	fs := flag.NewFlagSet("sweep-policy", flag.ExitOnError)
	policyName := fs.String("policy", "counting", "admission policy: counting, bandwidth, token-bucket, tiered, measured")
	mode := fs.String("mode", "sim", "measurement plane: sim (replicated simulator) or live (load harness against a real server; clock-free policies only)")
	capacity := fs.Float64("capacity", 8, "link capacity C")
	utilName := fs.String("util", "rigid", "utility function: rigid, adaptive")
	kmax := fs.Int("kmax", 0, "critical admission threshold (0 = derive kmax(C) from the utility)")
	mean := fs.Float64("mean", 6, "offered load k̄ (arrival rate is k̄/hold)")
	hold := fs.Float64("hold", 0.5, "mean flow holding time, virtual time units")
	duration := fs.Float64("duration", 200, "measured horizon per cell, virtual time units")
	replicates := fs.Int("replicates", 4, "independent sim replications per cell")
	k1Flag := fs.String("k1", "", "comma-separated K1 grid (tiered: standard fraction of kmax; token-bucket: refill rate; measured: target fraction of kmax)")
	k2Flag := fs.String("k2", "", "comma-separated K2 grid (tiered: sheddable fraction; token-bucket: burst; measured: estimator τ)")
	quick := fs.Bool("quick", false, "fast CI smoke: live tiered cells at the full and half standard tier")
	parallel := fs.Int("parallel", 0, "cell-level workers (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 1, "random seed (fixed seed ⇒ identical reports)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	util, err := parseUtility(*utilName)
	if err != nil {
		return err
	}
	k1, err := parseFloats(*k1Flag)
	if err != nil {
		return err
	}
	k2, err := parseFloats(*k2Flag)
	if err != nil {
		return err
	}
	if !(*hold > 0) || !(*mean > 0) {
		return fmt.Errorf("need positive -mean and -hold")
	}
	spec := search.Spec{
		Policy:     *policyName,
		Capacity:   *capacity,
		Util:       util,
		KMax:       *kmax,
		Rate:       *mean / *hold,
		Hold:       *hold,
		Duration:   *duration,
		Mode:       *mode,
		Replicates: *replicates,
		K1:         k1,
		K2:         k2,
		Seed1:      *seed,
		Seed2:      *seed ^ 0x9e3779b97f4a7c15,
		Workers:    *parallel,
	}
	if *quick {
		// A deliberately small live grid: the full-tier cell must pass the
		// complete model cross-validation and the half-tier cell its PASTA
		// counterpart, in about a second.
		rigid, err := utility.NewRigid(1)
		if err != nil {
			return err
		}
		spec = search.Spec{
			Policy:   "tiered",
			Capacity: 8,
			Util:     rigid,
			Rate:     12,
			Hold:     0.5,
			Duration: 120,
			Mode:     "live",
			K1:       []float64{1, 0.5},
			Seed1:    spec.Seed1,
			Seed2:    spec.Seed2,
			Workers:  *parallel,
		}
	}
	rep, err := search.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	tb := report.NewTable("k1", "k2", "L", "blocking", "sigma", "model", "z", "shed", "status")
	for _, c := range rep.Cells {
		status := "ok"
		switch {
		case !c.OK:
			status = "FAIL"
		case c.Degenerate:
			status = "DEGENERATE"
		case !c.Checked:
			status = "unchecked"
		}
		model, z := "-", "-"
		if c.Checked {
			model = fmt.Sprintf("%.4f", c.Predicted)
			z = fmt.Sprintf("%.2f", c.Z)
		}
		tb.AddRow(c.K1, c.K2, c.Limit, fmt.Sprintf("%.4f", c.Blocking),
			fmt.Sprintf("%.4f", c.Sigma), model, z, fmt.Sprintf("%.3f", c.ShedFraction), status)
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\npolicy %s (%s mode): kmax %d, offered load %.3g, %d/%d cells with an analytical counterpart\n",
		rep.Policy, rep.Mode, rep.KMax, rep.MeanLoad, rep.Checked(), len(rep.Cells))
	if !rep.AllOK() {
		return fmt.Errorf("policy search failed: a checked cell missed its analytical counterpart by more than %gσ or recorded anomalies", search.SigmaBound)
	}
	fmt.Println("all checked cells within the 3σ bound; no anomalies")
	return nil
}
