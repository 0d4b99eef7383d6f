package loadgen

import (
	"fmt"
	"math"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// SigmaBound is the acceptance threshold for the cross-validation checks:
// a measurement passes when it lies within SigmaBound batch-means standard
// errors of the analytical prediction.
const SigmaBound = 3.0

// Check is one measured-versus-model comparison.
type Check struct {
	// Name identifies the statistic.
	Name string
	// Measured is the harness's estimate and Predicted the analytical value.
	Measured  float64
	Predicted float64
	// Sigma is the measurement's batch-means standard error (0 for exact
	// checks, which pass only on equality).
	Sigma float64
	// Z is |Measured − Predicted| / Sigma (+Inf for a failed exact check).
	Z float64
	// OK reports whether the check passed (Z ≤ SigmaBound).
	OK bool
}

// CheckReport is the outcome of CrossCheck.
type CheckReport struct {
	Checks []Check
}

// AllOK reports whether every check passed.
func (cr *CheckReport) AllOK() bool {
	for _, c := range cr.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Failed returns the names of failed checks.
func (cr *CheckReport) Failed() []string {
	var out []string
	for _, c := range cr.Checks {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

func check(name string, measured, predicted, sigma float64) Check {
	c := Check{Name: name, Measured: measured, Predicted: predicted, Sigma: sigma}
	diff := math.Abs(measured - predicted)
	switch {
	case diff == 0:
		c.Z, c.OK = 0, true
	case sigma > 0:
		c.Z = diff / sigma
		c.OK = c.Z <= SigmaBound
	default:
		c.Z, c.OK = math.Inf(1), false
	}
	return c
}

func exact(name string, measured, predicted float64) Check {
	return check(name, measured, predicted, 0)
}

// CheckRare checks a measured probability, or a mean of per-flow values
// in [0, 1] such as utilities, over a window's n trials. When the window
// (a run, a phase, a policy-search cell) saw no event — zero denials or
// overload, or full utility for every flow, so its sigma is 0 too — while
// the model predicts a small nonzero tail, it falls back to the binomial
// standard error over the n trials: the right scale for whether seeing no
// event fits the prediction, and a bound on a mean utility's, since
// values in [0, 1] with mean p have variance at most p(1−p).
func CheckRare(name string, measured, predicted, sigma float64, n int) Check {
	if sigma == 0 && measured != predicted && n > 0 {
		if s := math.Sqrt(predicted * (1 - predicted) / float64(n)); s > 0 {
			sigma = s
		}
	}
	return check(name, measured, predicted, sigma)
}

// CrossCheck compares a run of scn against the analytical model at
// capacity c; util must be the server's utility. It validates:
//
//   - the admission threshold against kmax(C) (exact);
//   - when the whole run is one stationary segment (scn.Stationary, as
//     every run of Stationary's dynamics is), the run's measurements
//     against the model for its offered mean k̄; otherwise the
//     measurements of each enforceable phase (Scenario.Enforceable)
//     against the model for the phase's mean. Bursty and transient phases
//     get no checks: they are what the analytical model cannot cover;
//   - protocol hygiene: zero anomalies and zero residual reservations
//     (exact).
//
// The measurements checked, at SigmaBound standard errors, are the
// time-weighted overload fraction against the paper's blocking
// probability P(k > kmax), the arriving-flow denial rate against
// P(k ≥ kmax) (PASTA: an arrival finds the link full exactly when the
// standing population is ≥ kmax), the per-flow utility against the
// reservation performance R(C) = E[min(k, kmax)·π(C/min(k, kmax))] / k̄,
// and the time-averaged offered population against k̄.
func CrossCheck(res *Result, scn *workload.Scenario, util utility.Function, c float64) (*CheckReport, error) {
	if res == nil || scn == nil || util == nil {
		return nil, fmt.Errorf("loadgen: CrossCheck needs a result, a scenario and a utility")
	}
	if res.KMax < 1 {
		return nil, fmt.Errorf("loadgen: result has kmax = %d", res.KMax)
	}
	if len(res.Phases) != len(scn.Phases) {
		return nil, fmt.Errorf("loadgen: result has %d phase breakdowns, scenario %d phases", len(res.Phases), len(scn.Phases))
	}
	kmax, ok := utility.KMax(util, c)
	if !ok {
		kmax = math.MaxInt32
	}
	cr := &CheckReport{Checks: []Check{exact("admission threshold kmax", float64(res.KMax), float64(kmax))}}
	if mean, ok := scn.Stationary(); ok {
		run := PhaseStats{Flows: res.Flows,
			DenyRate: res.DenyRate, DenySigma: res.DenySigma,
			OverloadFraction: res.OverloadFraction, OverloadSigma: res.OverloadSigma,
			MeanLoad: res.MeasuredMeanLoad, LoadSigma: res.LoadSigma,
			MeanUtility: res.MeanUtility, UtilitySigma: res.UtilitySigma}
		if err := cr.battery("", &run, mean, util, c, res.KMax); err != nil {
			return nil, err
		}
	} else {
		for i, enf := range scn.Enforceable() {
			if !enf {
				continue
			}
			mean, _ := scn.Phases[i].Tractable()
			if err := cr.battery("phase "+scn.Phases[i].Name+": ", &res.Phases[i], mean, util, c, res.KMax); err != nil {
				return nil, err
			}
		}
	}
	cr.Checks = append(cr.Checks,
		exact("protocol anomalies", float64(res.Anomalies), 0),
		exact("residual reservations", float64(res.FinalActive), 0),
	)
	return cr, nil
}

// battery appends the checks of one stationary window's measurements st
// against Poisson(mean) offered load, each name prefixed with label. The
// tail and utility checks take CheckRare's fallback over the window's
// flows.
func (cr *CheckReport) battery(label string, st *PhaseStats, mean float64, util utility.Function, c float64, kmax int) error {
	pois, err := dist.NewPoisson(mean)
	if err != nil {
		return fmt.Errorf("loadgen: %soffered load: %w", label, err)
	}
	m, err := core.New(pois, util)
	if err != nil {
		return fmt.Errorf("loadgen: %smodel: %w", label, err)
	}
	load := m.Load()
	cr.Checks = append(cr.Checks,
		CheckRare(label+"blocking P(k > kmax)", st.OverloadFraction, load.TailProb(kmax), st.OverloadSigma, st.Flows),
		CheckRare(label+"arrival denial P(k ≥ kmax)", st.DenyRate, load.TailProb(kmax-1), st.DenySigma, st.Flows),
		CheckRare(label+"mean utility R(C)", st.MeanUtility, m.Reservation(c), st.UtilitySigma, st.Flows),
		check(label+"offered load k̄", st.MeanLoad, m.MeanLoad(), st.LoadSigma),
	)
	return nil
}
