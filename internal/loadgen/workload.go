package loadgen

import "beqos/internal/workload"

// PhaseStats is one phase's measured breakdown of a workload-driven run,
// folded from the phase's time slices as Result's run-wide statistics are
// from the run's: each ratio statistic carries its batch-means standard
// error.
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
// comes from the scenario's class mixture when it has one, else it is 0.
func (r *runner) toArrival(rec workload.Flow) arrival {
	var tier uint8
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
