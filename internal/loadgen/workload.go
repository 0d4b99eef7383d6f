package loadgen

import (
	"fmt"
	"math"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// phaseSlices is the number of equal time slices per phase used for the
// per-phase batch-means standard errors. Phases are shorter than the whole
// run, so they get fewer batches than the run-wide 16.
const phaseSlices = 8

// phaseAccum holds one phase's per-slice integrals, mirroring the run-wide
// batch accumulators in runner.
type phaseAccum struct {
	time     [phaseSlices]float64
	overload [phaseSlices]float64
	popInt   [phaseSlices]float64
	utilInt  [phaseSlices]float64
	firstAtt [phaseSlices]float64
	firstDen [phaseSlices]float64
}

// PhaseStats is one phase's measured breakdown of a workload-driven run.
// The ratio statistics carry batch-means standard errors over the phase's
// time slices, like their run-wide counterparts in Result.
type PhaseStats struct {
	// Name is the phase's declared name; Start and End are its absolute
	// bounds in virtual time.
	Name       string
	Start, End float64
	// Flows counts the phase's measured arrivals and FirstDenied their
	// denied first attempts; DenyRate is their ratio.
	Flows       int
	FirstDenied int
	DenyRate    float64
	DenySigma   float64
	// OverloadFraction is the fraction of the phase with offered
	// population above kmax.
	OverloadFraction float64
	OverloadSigma    float64
	// MeanLoad is the phase's time-averaged offered population.
	MeanLoad  float64
	LoadSigma float64
	// MeanUtility is the phase's measured per-flow utility.
	MeanUtility  float64
	UtilitySigma float64
}

// Stationary compiles the harness's classic stationary dynamics into a
// scenario: Poisson arrivals at rate with exponential holds of mean hold
// (offered load k̄ = rate·hold), a prefill of round(k̄) flows at time zero
// so warmup starts near stationarity (exponential holding is memoryless,
// so a fresh holding time is the correct stationary residual), a warmup
// prefix (0 means 5·hold), then duration measured time units.
// specs/baseline.spec is Stationary(100, 1, 80, 0).
func Stationary(rate, hold, duration, warmup float64) (*workload.Scenario, error) {
	if warmup == 0 {
		warmup = 5 * hold
	}
	return workload.OnePhase(int(rate*hold+0.5), warmup, warmup+duration,
		workload.ArrivalSpec{Kind: "poisson", Rate: rate}, workload.HoldSpec{Kind: "exp", Mean: hold})
}

// pull consumes one record from the workload stream into the lookahead
// slot, feeding the golden-determinism trace hook in stream order.
func (r *runner) pull() {
	rec, ok := r.wl.Next()
	if ok && r.cfg.WorkloadRecord != nil {
		r.cfg.WorkloadRecord(rec)
	}
	r.wlNext, r.wlOK = rec, ok
}

// toArrival maps one workload record to a harness arrival: the wire tier
// comes from the scenario's class mixture when it has one, else from the
// run-wide Class.
func (r *runner) toArrival(rec workload.Flow) arrival {
	tier := r.cfg.Class
	if cls := r.cfg.Workload.Classes; len(cls) > 0 {
		tier = cls[rec.Class].Tier
	}
	return arrival{hold: rec.Hold, tier: tier, phase: rec.Phase}
}

// takeGroup collects every pending record scheduled for exactly virtual
// time at — the prefill block and any coincident arrivals — so they land
// at one instant and batch mode can coalesce them.
func (r *runner) takeGroup(at float64) []arrival {
	var g []arrival
	for r.wlOK && r.wlNext.At == at {
		g = append(g, r.toArrival(r.wlNext))
		r.pull()
	}
	return g
}

// pump schedules the next arrival group off the stream lookahead; each
// firing lands the group and re-arms the pump.
func (r *runner) pump() {
	if !r.wlOK {
		return
	}
	at := r.wlNext.At
	r.eng.Schedule(at-r.eng.Now(), func() {
		if r.err != nil {
			return
		}
		r.arriveGroup(r.takeGroup(at))
		r.pump()
	})
}

// phaseSlice maps the instant t inside phase ph to its slice index.
func phaseSlice(ph *workload.Phase, t float64) int {
	s := int((t - ph.Start) / (ph.Duration / phaseSlices))
	if s < 0 {
		s = 0
	}
	if s >= phaseSlices {
		s = phaseSlices - 1
	}
	return s
}

// phaseFirst tallies one measured first attempt (and optionally its
// denial) against the owning phase's slice accumulators.
func (r *runner) phaseFirst(phase int, denied bool) {
	ph := &r.cfg.Workload.Phases[phase]
	pa := &r.phases[phase]
	s := phaseSlice(ph, r.eng.Now())
	if denied {
		pa.firstDen[s]++
	} else {
		pa.firstAtt[s]++
	}
}

// advancePhases integrates the piecewise-constant state over (from, to],
// clipped to the measurement window, splitting across phase and slice
// boundaries. It mirrors advance's run-wide integrals per phase.
func (r *runner) advancePhases(from, to float64) {
	lo := math.Max(from, r.warmup)
	hi := math.Min(to, r.warmup+r.duration)
	if hi <= lo {
		return
	}
	scn := r.cfg.Workload
	for lo < hi {
		pi := scn.PhaseAt(lo)
		ph := &scn.Phases[pi]
		s := phaseSlice(ph, lo)
		end := ph.Start + float64(s+1)*(ph.Duration/phaseSlices)
		if pe := ph.Start + ph.Duration; end > pe {
			end = pe
		}
		if end > hi {
			end = hi
		}
		if !(end > lo) {
			// Floating-point corner: a boundary rounded onto lo. Force
			// minimal progress so the walk terminates.
			end = math.Nextafter(lo, math.Inf(1))
			if end > hi {
				return
			}
		}
		dt := end - lo
		pa := &r.phases[pi]
		pa.time[s] += dt
		pa.popInt[s] += dt * float64(r.pop)
		if r.pop > r.kmax {
			pa.overload[s] += dt
		}
		pa.utilInt[s] += dt * r.piTimes[r.nres]
		lo = end
	}
}

// finishPhases folds the per-phase accumulators into Result.Phases.
func (r *runner) finishPhases() {
	scn := r.cfg.Workload
	r.res.Phases = make([]PhaseStats, len(scn.Phases))
	for i := range scn.Phases {
		ph := &scn.Phases[i]
		pa := &r.phases[i]
		ps := &r.res.Phases[i]
		ps.Name = ph.Name
		ps.Start = ph.Start
		ps.End = ph.Start + ph.Duration
		for s := 0; s < phaseSlices; s++ {
			ps.Flows += int(pa.firstAtt[s])
			ps.FirstDenied += int(pa.firstDen[s])
		}
		ps.DenyRate, ps.DenySigma = ratio(pa.firstDen[:], pa.firstAtt[:])
		ps.OverloadFraction, ps.OverloadSigma = ratio(pa.overload[:], pa.time[:])
		ps.MeanLoad, ps.LoadSigma = ratio(pa.popInt[:], pa.time[:])
		ps.MeanUtility, ps.UtilitySigma = ratio(pa.utilInt[:], pa.popInt[:])
	}
}

// checkRare guards the rare-event corner of the per-phase oracle: a
// phase can measure exactly zero denials or overload while the model
// predicts a vanishing but nonzero tail probability, and the batch-means
// sigma (also zero — no slice saw the event) cannot absorb the gap. Fall
// back to the binomial standard error over the phase's n trials, which is
// the right scale for whether zero observed events is consistent with
// the predicted probability.
func checkRare(name string, measured, predicted, sigma float64, n int) Check {
	if sigma == 0 && measured != predicted && n > 0 {
		if s := math.Sqrt(predicted * (1 - predicted) / float64(n)); s > 0 {
			sigma = s
		}
	}
	return check(name, measured, predicted, sigma)
}

// CrossCheckWorkload validates a workload-driven run's per-phase
// measurements against the analytical model wherever a phase is both
// tractable (Poisson, no events → M/G/∞ offered mean rate·E[hold]) and
// enforceable (the population entering it is already stationary at that
// mean, see Scenario.Enforceable). For each such phase it checks the
// blocking fraction against P(k > kmax), the arrival denial rate against
// P(k ≥ kmax), the mean utility against R(C), and the offered load against
// k̄, all at 3σ; protocol hygiene (anomalies, residual reservations) is
// checked exactly. Phases that are bursty or transient contribute no
// checks — they are what the analytical model cannot cover.
func CrossCheckWorkload(res *Result, scn *workload.Scenario, util utility.Function, capacity float64) (*CheckReport, error) {
	if res == nil || scn == nil || util == nil {
		return nil, fmt.Errorf("loadgen: CrossCheckWorkload needs a result, a scenario and a utility")
	}
	if res.KMax < 1 {
		return nil, fmt.Errorf("loadgen: result has kmax = %d", res.KMax)
	}
	if len(res.Phases) != len(scn.Phases) {
		return nil, fmt.Errorf("loadgen: result has %d phase breakdowns, scenario %d phases", len(res.Phases), len(scn.Phases))
	}
	cr := &CheckReport{}
	enf := scn.Enforceable()
	for i := range scn.Phases {
		if !enf[i] {
			continue
		}
		ph := &scn.Phases[i]
		mean, _ := ph.Tractable()
		load, err := dist.NewPoisson(mean)
		if err != nil {
			return nil, fmt.Errorf("loadgen: phase %q offered load: %w", ph.Name, err)
		}
		m, err := core.New(load, util)
		if err != nil {
			return nil, fmt.Errorf("loadgen: phase %q model: %w", ph.Name, err)
		}
		ps := &res.Phases[i]
		cr.Checks = append(cr.Checks,
			checkRare(fmt.Sprintf("phase %s: blocking P(k > kmax)", ph.Name), ps.OverloadFraction, load.TailProb(res.KMax), ps.OverloadSigma, ps.Flows),
			checkRare(fmt.Sprintf("phase %s: arrival denial P(k ≥ kmax)", ph.Name), ps.DenyRate, load.TailProb(res.KMax-1), ps.DenySigma, ps.Flows),
			check(fmt.Sprintf("phase %s: mean utility R(C)", ph.Name), ps.MeanUtility, m.Reservation(capacity), ps.UtilitySigma),
			check(fmt.Sprintf("phase %s: offered load k̄", ph.Name), ps.MeanLoad, mean, ps.LoadSigma),
		)
	}
	cr.Checks = append(cr.Checks,
		exact("protocol anomalies", float64(res.Anomalies), 0),
		exact("residual reservations", float64(res.FinalActive), 0),
	)
	return cr, nil
}
