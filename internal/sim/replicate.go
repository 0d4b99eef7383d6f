package sim

import (
	"context"
	"fmt"
	"math"

	"beqos/internal/rng"
	"beqos/internal/sweep"
)

// Summary aggregates a metric across independent replications.
type Summary struct {
	// Mean is the across-replication average.
	Mean float64
	// StdErr is the standard error of the mean.
	StdErr float64
	// N is the number of replications.
	N int
}

// Replication reports the replicated metrics of RunReplicationsWorkers.
type Replication struct {
	MeanUtility  Summary
	AvgOccupancy Summary
	BlockingRate Summary
}

// RunReplicationsWorkers runs n independent replications of cfg and
// reports across-replication means with standard errors — the defensible
// way to quote simulator numbers against the analytical model.
// Replications fan out over the worker budget (0 = GOMAXPROCS,
// 1 = sequential). Each replication i draws its seeds
// from rng.Substream(cfg.Seed1, cfg.Seed2, i) — a pure function of the
// base seed and the index — and results are reduced in index order, so
// the output is byte-identical for every worker count.
func RunReplicationsWorkers(cfg Config, n, workers int) (Replication, error) {
	if n < 2 {
		return Replication{}, fmt.Errorf("sim: need at least 2 replications, got %d", n)
	}
	if cfg.Admission != nil {
		// Config is copied by value per replication, but a policy.Policy is a
		// stateful pointer: replications would race on (and pollute) one
		// shared policy. Callers must run replicates themselves with a fresh
		// policy per run.
		return Replication{}, fmt.Errorf("sim: replications cannot share one stateful admission policy; build a fresh policy per replicate")
	}
	type metrics struct{ util, occ, blk float64 }
	outs := make([]metrics, n)
	err := sweep.ForEach(context.Background(), workers, n, func(i int) error {
		run := cfg
		run.Seed1, run.Seed2 = rng.Substream(cfg.Seed1, cfg.Seed2, uint64(i))
		res, err := Run(run)
		if err != nil {
			return fmt.Errorf("sim: replication %d: %w", i, err)
		}
		outs[i] = metrics{util: res.MeanUtility, occ: res.AvgOccupancy, blk: res.BlockingRate}
		return nil
	})
	if err != nil {
		return Replication{}, err
	}
	util := make([]float64, n)
	occ := make([]float64, n)
	blk := make([]float64, n)
	for i, m := range outs {
		util[i], occ[i], blk[i] = m.util, m.occ, m.blk
	}
	return Replication{
		MeanUtility:  summarize(util),
		AvgOccupancy: summarize(occ),
		BlockingRate: summarize(blk),
	}, nil
}

// summarize computes mean and standard error.
func summarize(xs []float64) Summary {
	n := float64(len(xs))
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return Summary{
		Mean:   mean,
		StdErr: math.Sqrt(ss / (n - 1) / n),
		N:      len(xs),
	}
}
