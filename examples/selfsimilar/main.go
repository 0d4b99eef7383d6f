// Selfsimilar: does the load's tail really decide the debate? The paper's
// conclusion hangs on whether future Internet loads look Poisson-ish or
// heavy-tailed. This example generates both from explicit flow dynamics —
// memoryless arrivals versus heavy-tailed session batches — measures the
// stationary occupancy each produces, feeds the *measured* distributions
// back into the analytical model, and compares the architectures.
package main

import (
	"fmt"
	"log"

	"beqos"
)

func run(name string, traffic beqos.Traffic) beqos.Load {
	res, err := beqos.Simulate(beqos.SimConfig{
		Capacity: 1e9, // uncapped: we only want the demand process
		Util:     beqos.RigidUtility(),
		Traffic:  traffic,
		Horizon:  60000,
		Warmup:   2000,
		Samples:  1,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s mean occupancy %.1f, P(K > 2·mean) = %.5f\n",
		name, res.MeanOccupancy, res.MeasuredLoad.TailProb(int(2*res.MeanOccupancy)))
	return res.MeasuredLoad
}

func main() {
	fmt.Println("Measuring stationary loads from two traffic generators:")
	poisson, err := beqos.PoissonTraffic(10, 10) // offered load 100
	if err != nil {
		log.Fatal(err)
	}
	// A session lands min(⌊Pareto(1, 1.5)⌋, 2^20) flows at once: on
	// average ζ(1.5) − ζ(1.5, 2^20+1) ≈ 2.6104 of them, not the continuous
	// Pareto mean 3. Sessions at 10/2.6104 per unit time offer the same
	// load, 100.
	sessions, err := beqos.SessionTraffic(10/2.6104, 1, 1.5, 10)
	if err != nil {
		log.Fatal(err)
	}
	loadP := run("memoryless flows:", poisson)
	loadS := run("heavy-tailed sessions:", sessions)

	fmt.Println("\nFeeding the measured loads into the analytical model (rigid apps):")
	fmt.Println("capacity     Poisson-traffic δ, Δ       session-traffic δ, Δ")
	for _, c := range []float64{120, 150, 200} {
		row := fmt.Sprintf("%8.0f", c)
		for _, load := range []beqos.Load{loadP, loadS} {
			m, err := beqos.NewModel(load, beqos.RigidUtility())
			if err != nil {
				log.Fatal(err)
			}
			d := m.PerformanceGap(c)
			g, err := m.BandwidthGap(c)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("      %.4f, %6.1f", d, g)
		}
		fmt.Println(row)
	}

	fmt.Println("\nThe session-driven load is overdispersed, so both the performance")
	fmt.Println("gap and the extra bandwidth best-effort needs stay large at")
	fmt.Println("capacities where the memoryless load's gaps have already vanished —")
	fmt.Println("the dynamic counterpart of the paper's algebraic-load conclusion.")
}
