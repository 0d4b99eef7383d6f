package beqos

import (
	"fmt"

	"beqos/internal/sim"
	"beqos/internal/workload"
)

// Traffic describes the flow dynamics for a simulation.
type Traffic struct {
	arrivals workload.ArrivalSpec
	holding  workload.HoldSpec
}

// PoissonTraffic returns memoryless flow arrivals at the given rate with
// exponential holding times of the given mean (an M/M/∞-style offered
// load of rate·holdMean flows).
func PoissonTraffic(rate, holdMean float64) (Traffic, error) {
	return newTraffic(workload.ArrivalSpec{Kind: "poisson", Rate: rate}, holdMean)
}

// SessionTraffic returns heavy-tailed session arrivals: sessions arrive at
// the given rate, each launching a batch of min(⌊Pareto(batchScale,
// batchShape)⌋, 2^20) flows with exponential holding times — a simple
// generator of the overdispersed loads the paper associates with
// self-similar traffic. A Pareto(1, 1.5) batch averages ζ(1.5) ≈ 2.61
// flows.
func SessionTraffic(rate, batchScale, batchShape, holdMean float64) (Traffic, error) {
	a := workload.ArrivalSpec{Kind: "session", Scale: batchScale, Shape: batchShape}
	a.Rate = rate * a.MeanBatch()
	return newTraffic(a, holdMean)
}

// newTraffic checks the traffic by compiling it over a unit horizon.
func newTraffic(a workload.ArrivalSpec, holdMean float64) (Traffic, error) {
	t := Traffic{arrivals: a, holding: workload.HoldSpec{Kind: "exp", Mean: holdMean}}
	if _, err := workload.OnePhase(0, 0, 1, t.arrivals, t.holding); err != nil {
		return Traffic{}, err
	}
	return t, nil
}

// SimConfig describes one flow-level simulation run.
type SimConfig struct {
	// Capacity is the link capacity C.
	Capacity float64
	// Util is the application utility.
	Util Utility
	// Traffic defines arrivals and holding times.
	Traffic Traffic
	// Reservations enables admission control at kmax(C); false simulates
	// the best-effort-only link.
	Reservations bool
	// Horizon and Warmup are simulated durations (warmup excluded from
	// statistics).
	Horizon, Warmup float64
	// Samples is the §5.1 S (0 = time-average scoring, 1 = arrival
	// snapshot, larger = worst of S samples).
	Samples int
	// Seed makes runs reproducible.
	Seed uint64
}

// SimResult reports a run's measurements.
type SimResult struct {
	// MeasuredLoad is the stationary occupancy distribution, usable
	// directly as a Load for the analytical model.
	MeasuredLoad Load
	// MeanOccupancy is its mean.
	MeanOccupancy float64
	// MeanUtility is the average per-flow utility.
	MeanUtility float64
	// BlockingRate is the per-attempt rejection rate (reservations only).
	BlockingRate float64
	// Flows, Admitted and Rejected count post-warmup flows.
	Flows, Admitted, Rejected int
}

// Simulate runs a flow-level simulation of one link.
func Simulate(cfg SimConfig) (SimResult, error) {
	if cfg.Util.f == nil {
		return SimResult{}, fmt.Errorf("beqos: SimConfig.Util must be constructed")
	}
	if cfg.Traffic.arrivals.Kind == "" {
		return SimResult{}, fmt.Errorf("beqos: SimConfig.Traffic must be constructed")
	}
	scn, err := workload.OnePhase(0, cfg.Warmup, cfg.Horizon, cfg.Traffic.arrivals, cfg.Traffic.holding)
	if err != nil {
		return SimResult{}, err
	}
	policy := sim.BestEffort
	if cfg.Reservations {
		policy = sim.Reservation
	}
	res, err := sim.Run(sim.Config{
		Capacity: cfg.Capacity,
		Util:     cfg.Util.f,
		Policy:   policy,
		Workload: scn,
		Samples:  cfg.Samples,
		Seed1:    cfg.Seed,
		Seed2:    cfg.Seed ^ 0x9e3779b97f4a7c15,
	})
	if err != nil {
		return SimResult{}, err
	}
	out := SimResult{
		MeanOccupancy: res.AvgOccupancy,
		MeanUtility:   res.MeanUtility,
		BlockingRate:  res.BlockingRate,
		Flows:         res.Flows,
		Admitted:      res.Admitted,
		Rejected:      res.Rejected,
	}
	if res.Occupancy != nil {
		out.MeasuredLoad = Load{d: res.Occupancy}
	}
	return out, nil
}
