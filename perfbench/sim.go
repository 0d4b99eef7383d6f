package main

import (
	_ "embed"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"beqos/internal/core"
	"beqos/internal/rng"
	"beqos/internal/sim"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// simSpec is the sim workload's scenario: heavy-tailed holds at k̄ = 50.
//
//go:embed heavytail.spec
var simSpec string

// Sim workload parameters: a reservation-capable link at C = kmax = 50,
// the offered load's mean, and the capacities the measured load is
// evaluated at, as fractions of C.
const (
	simCapacity  = 50
	simPhase     = "stationary" // the phase checked against Erlang B
	simWarmReps  = 256          // replications run during set-up
	simCheckReps = 256          // replications, by index, the Erlang B check pools
	// simSigmas is the Erlang B check's tolerance in standard errors. At
	// 3σ one seed in 370 fails although the simulator is right (over 40
	// seeds the z-scores came out standard normal, one of them at 3.0),
	// which is one spurious failure every few hundred runs; 4σ fails one
	// seed in 16,000.
	simSigmas = 4
)

var simGrid = []float64{0.5, 0.75, 1}

// simCaller is one closed-loop caller's accumulators over the traced
// slices.
type simCaller struct {
	flows, events   uint64
	simNS, coreNS   int64
	arenaPeak, reps int
	tally
}

type simInst struct {
	cfg     sim.Config
	phase   int
	kmax    int
	next    atomic.Uint64
	callers []*simCaller
	// blocking is the checked phase's blocking ratio of each replication
	// below simCheckReps, written by the caller that ran it.
	blocking []float64
	// traced is whether the current slice adds up the spans around sim.Run
	// and the model evaluation; drive's trace hook sets it between slices.
	traced bool
}

func buildSim(seed uint64) (*simInst, error) {
	scn, err := workload.Parse(simSpec)
	if err != nil {
		return nil, err
	}
	phase := -1
	for i := range scn.Phases {
		if scn.Phases[i].Name == simPhase {
			phase = i
		}
	}
	if phase < 0 {
		return nil, fmt.Errorf("sim spec has no %q phase", simPhase)
	}
	util := utility.NewAdaptive()
	kmax, _ := utility.KMax(util, simCapacity)
	s1, s2 := seedPair(seed, 0)
	in := &simInst{
		cfg:      sim.Config{Capacity: simCapacity, Util: util, Policy: sim.Reservation, Workload: scn, Seed1: s1, Seed2: s2},
		phase:    phase,
		kmax:     kmax,
		blocking: make([]float64, simCheckReps),
	}
	for w := 0; w < callers; w++ {
		in.callers = append(in.callers, &simCaller{})
	}
	rep, err := sim.RunReplicationsWorkers(in.cfg, simWarmReps, callers)
	if err != nil {
		return nil, err
	}
	if b := rep.BlockingRate.Mean; !(b > 0 && b < 1) {
		return nil, fmt.Errorf("sim warm-up blocking %g outside (0, 1)", b)
	}
	return in, nil
}

// call runs one replication and evaluates the paper's model on its
// measured occupancy. It returns the flows simulated after the warmup.
func (in *simInst) call(w int) int {
	c := in.callers[w]
	i := in.next.Add(1) - 1
	run := in.cfg
	run.Seed1, run.Seed2 = rng.Substream(in.cfg.Seed1, in.cfg.Seed2, i)
	t0 := time.Now()
	res, err := sim.Run(run)
	t1 := time.Now()
	if err != nil {
		c.fail(1, "replication %d: %v", i, err)
		return 1
	}
	if res.Admitted+res.Rejected != res.Flows || res.PeakOccupancy > in.kmax {
		c.fail(res.Flows, "replication %d: %d admitted + %d rejected of %d flows, peak %d, bound %d",
			i, res.Admitted, res.Rejected, res.Flows, res.PeakOccupancy, in.kmax)
	}
	m, err := core.New(res.Occupancy, in.cfg.Util)
	if err != nil {
		c.fail(res.Flows, "replication %d: model: %v", i, err)
		return res.Flows
	}
	for _, f := range simGrid {
		b, r, delta, gap, err := m.Gaps(f * simCapacity)
		const tol = 1e-9
		if err != nil || !(b >= 0 && r <= 1+tol && delta >= -tol && gap >= 0) || math.IsNaN(gap) {
			c.fail(res.Flows, "replication %d: model at C=%g: B=%g R=%g Δ=%g %v", i, f*simCapacity, b, r, gap, err)
		}
	}
	t2 := time.Now()
	if i < simCheckReps {
		in.blocking[i] = float64(res.PhaseRejected[in.phase]) / float64(res.PhaseFlows[in.phase])
	}
	if in.traced {
		c.reps++
		c.flows += uint64(res.Flows)
		c.events += res.Events
		c.simNS += t1.Sub(t0).Nanoseconds()
		c.coreNS += t2.Sub(t1).Nanoseconds()
		c.arenaPeak = max(c.arenaPeak, res.ArenaPeak)
	}
	return res.Flows
}

// erlangB is the blocking probability of k servers offered load a.
func erlangB(a float64, k int) float64 {
	b := 1.0
	for i := 1; i <= k; i++ {
		b = a * b / (float64(i) + a*b)
	}
	return b
}

// checkBlocking compares the checked phase's blocking, pooled over the
// first replications by index, with Erlang B at kmax. The replications it
// pools depend on the seed alone, not on how many the run completed.
func (o *outcome) checkBlocking(in *simInst, offered float64) {
	n := min(int(in.next.Load()), simCheckReps)
	if n < 2 {
		o.check(false, "only %d replications completed", n)
		return
	}
	var mean, ss float64
	for _, b := range in.blocking[:n] {
		mean += b
	}
	mean /= float64(n)
	for _, b := range in.blocking[:n] {
		ss += (b - mean) * (b - mean)
	}
	stderr := math.Sqrt(ss / float64(n-1) / float64(n))
	want := erlangB(offered, in.kmax)
	msg := fmt.Sprintf("phase %s blocking %.5f ± %.5f over %d replications, Erlang B(%g, %d) = %.5f, z = %.2f",
		simPhase, mean, stderr, n, offered, in.kmax, want, (mean-want)/stderr)
	fmt.Println(msg)
	o.check(math.Abs(mean-want) <= simSigmas*stderr, "%s", msg)
}

func runSim(cfg config) (*outcome, error) {
	o := newOutcome()
	in, setup, err := setUp(cfg, func() (*simInst, error) { return buildSim(cfg.seed) }, func(*simInst) {})
	if err != nil {
		return nil, err
	}
	var trace func(k int, on bool)
	if cfg.trace {
		trace = func(_ int, on bool) { in.traced = on }
	}
	r := drive(cfg.duration(), in.call, trace)
	offered, _ := in.cfg.Workload.Phases[in.phase].Tractable()
	o.checkBlocking(in, offered)
	var s simCaller
	for _, c := range in.callers {
		s.flows += c.flows
		s.events += c.events
		s.simNS += c.simNS
		s.coreNS += c.coreNS
		s.reps += c.reps
		s.arenaPeak = max(s.arenaPeak, c.arenaPeak)
	}
	o.attempted, o.failed = r.all.ops, o.sum(func(w int) *tally { return &in.callers[w].tally }).failed

	if !cfg.trace {
		o.setEndToEnd(r, setup)
		return o, nil
	}
	o.setRuntime(r, math.MaxInt) // every traced slice adds up its spans
	o.layer["sim.events_per_flow"] = ratio(float64(s.events), float64(s.flows))
	o.layer["sim.ns_per_event"] = ratio(float64(s.simNS), float64(s.events))
	o.layer["sim.arena_peak"] = float64(s.arenaPeak)
	o.layer["core.eval_ms"] = ratio(float64(s.coreNS), float64(s.reps)) / 1e6
	var traced slice
	for k := range r.slices {
		if r.slices[k].traced {
			traced.add(&r.slices[k])
		}
	}
	o.setResidual(&traced.calls, float64(s.simNS+s.coreNS))
	if err := o.replayWorkload(simSpec, cfg.seed); err != nil {
		return nil, err
	}
	o.replayObs()
	return o, nil
}
