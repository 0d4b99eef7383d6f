// Benchmarks: one per paper artifact (see DESIGN.md's experiment index),
// each regenerating a representative slice of that table or figure, plus
// micro-benchmarks on the evaluation hot paths. Absolute times are
// machine-dependent; the point is that every artifact has a one-command
// regeneration target:
//
//	go test -bench=BenchmarkFig3 -benchmem .
package beqos_test

import (
	"context"
	"testing"

	"beqos/internal/continuum"
	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/numeric"
	"beqos/internal/sched"
	"beqos/internal/sim"
	"beqos/internal/sweep"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

const kbar = 100.0

func benchLoad(b *testing.B, name string) dist.Discrete {
	b.Helper()
	var d dist.Discrete
	var err error
	switch name {
	case "poisson":
		d, err = dist.NewPoisson(kbar)
	case "exponential":
		d, err = dist.NewExponentialMean(kbar)
	case "algebraic":
		d, err = dist.NewAlgebraicMean(3, kbar)
	}
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchUtil(b *testing.B, name string) utility.Function {
	b.Helper()
	if name == "adaptive" {
		return utility.NewAdaptive()
	}
	r, err := utility.NewRigid(1)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchModel(b *testing.B, load, util string) *core.Model {
	b.Helper()
	m, err := core.New(benchLoad(b, load), benchUtil(b, util))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// figurePanels regenerates the a/b (utility + bandwidth gap) panels of one
// figure on a coarse capacity grid.
func figurePanels(b *testing.B, m *core.Model) {
	b.Helper()
	for _, c := range []float64{50, 100, 200, 400, 800} {
		_ = m.BestEffort(c)
		_ = m.Reservation(c)
		if _, err := m.BandwidthGap(c); err != nil {
			b.Fatal(err)
		}
	}
}

// gammaPanel regenerates the c/f (price-ratio) panel at two prices.
func gammaPanel(b *testing.B, m *core.Model, prices ...float64) {
	b.Helper()
	for _, p := range prices {
		if _, err := m.GammaEqualize(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1 ---

func BenchmarkFig1AdaptiveUtility(b *testing.B) {
	a := utility.NewAdaptive()
	for i := 0; i < b.N; i++ {
		for bw := 0.0; bw <= 10; bw += 0.01 {
			_ = a.Eval(bw)
		}
	}
}

// --- Figure 2: Poisson ---

func BenchmarkFig2PoissonRigid(b *testing.B) {
	m := benchModel(b, "poisson", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figurePanels(b, m)
	}
}

func BenchmarkFig2PoissonRigidGamma(b *testing.B) {
	m := benchModel(b, "poisson", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gammaPanel(b, m, 0.1, 0.01)
	}
}

func BenchmarkFig2PoissonAdaptive(b *testing.B) {
	m := benchModel(b, "poisson", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figurePanels(b, m)
	}
}

func BenchmarkFig2PoissonAdaptiveGamma(b *testing.B) {
	m := benchModel(b, "poisson", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gammaPanel(b, m, 0.1)
	}
}

// --- Figure 3: exponential ---

func BenchmarkFig3ExponentialRigid(b *testing.B) {
	m := benchModel(b, "exponential", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figurePanels(b, m)
	}
}

func BenchmarkFig3ExponentialRigidGamma(b *testing.B) {
	m := benchModel(b, "exponential", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gammaPanel(b, m, 0.1, 0.01)
	}
}

func BenchmarkFig3ExponentialAdaptive(b *testing.B) {
	m := benchModel(b, "exponential", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figurePanels(b, m)
	}
}

func BenchmarkFig3ExponentialAdaptiveGamma(b *testing.B) {
	m := benchModel(b, "exponential", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gammaPanel(b, m, 0.1)
	}
}

// --- Figure 4: algebraic ---

func BenchmarkFig4AlgebraicRigid(b *testing.B) {
	m := benchModel(b, "algebraic", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figurePanels(b, m)
	}
}

func BenchmarkFig4AlgebraicRigidGamma(b *testing.B) {
	m := benchModel(b, "algebraic", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gammaPanel(b, m, 0.1, 0.01)
	}
}

func BenchmarkFig4AlgebraicAdaptive(b *testing.B) {
	m := benchModel(b, "algebraic", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figurePanels(b, m)
	}
}

func BenchmarkFig4AlgebraicAdaptiveGamma(b *testing.B) {
	m := benchModel(b, "algebraic", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gammaPanel(b, m, 0.1)
	}
}

// --- T1: continuum closed forms vs quadrature ---

func BenchmarkT1ContinuumAsymptotics(b *testing.B) {
	cf, err := continuum.NewExpRigid(kbar)
	if err != nil {
		b.Fatal(err)
	}
	ed, err := dist.NewExpDensity(1 / kbar)
	if err != nil {
		b.Fatal(err)
	}
	num, err := continuum.NewNumeric(ed, benchUtil(b, "rigid"), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{50, 200, 800} {
			_ = cf.BestEffort(c)
			_ = num.BestEffort(c)
			if _, err := cf.BandwidthGap(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- T2: worst-case bounds ---

func BenchmarkT2WorstCaseBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, z := range []float64{3, 2.5, 2.2, 2.05} {
			cf, err := continuum.NewAlgRigid(z)
			if err != nil {
				b.Fatal(err)
			}
			_ = cf.GapRatio()
			if _, err := cf.GammaEqualize(1e-6); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- T3: slow-tail regimes ---

func BenchmarkT3SlowTailRegimes(b *testing.B) {
	st, err := utility.NewSlowTail(1.5)
	if err != nil {
		b.Fatal(err)
	}
	ad, err := dist.NewAlgDensity(4)
	if err != nil {
		b.Fatal(err)
	}
	num, err := continuum.NewNumeric(ad, st, st.KStar)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := num.BandwidthGap(300); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1/E2: sampling extension ---

func BenchmarkE1Sampling(b *testing.B) {
	m := benchModel(b, "exponential", "adaptive")
	sp, err := core.NewSampling(m, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{100, 200, 400} {
			_ = sp.PerformanceGap(c)
			if _, err := sp.BandwidthGap(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE2SamplingAsymptotics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, z := range []float64{3, 2.5, 2.2} {
			for _, s := range []int{2, 5, 10} {
				_ = continuum.SamplingAlgRigidRatio(z, s)
				_ = continuum.SamplingAlgRampRatio(z, 0.5, s)
			}
		}
	}
}

// --- E3/E4: retrying extension ---

func BenchmarkE3Retrying(b *testing.B) {
	m := benchModel(b, "algebraic", "adaptive")
	rt, err := core.NewRetry(m, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{200, 400} {
			if _, err := rt.PerformanceGap(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE4RetryAsymptotics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, z := range []float64{3, 2.5, 2.2} {
			for _, alpha := range []float64{0.5, 0.1, 0.01} {
				_ = continuum.RetryAlgRigidRatio(z, alpha)
				_ = continuum.RetryAlgRampRatio(z, 0.5, alpha)
			}
		}
	}
}

// --- S1/S2: simulator validation runs ---

func BenchmarkS1SimulatedLoad(b *testing.B) {
	scn, err := workload.OnePhase(0, 100, 2000,
		workload.ArrivalSpec{Kind: "poisson", Rate: 10}, workload.HoldSpec{Kind: "exp", Mean: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Capacity: 120, Util: benchUtil(b, "rigid"), Policy: sim.BestEffort,
			Workload: scn, Samples: 1,
			Seed1: uint64(i), Seed2: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkS2HeavyTailLoad(b *testing.B) {
	// Four sessions per unit time, each a Pareto(1, 1.5) batch of flows.
	arr := workload.ArrivalSpec{Kind: "session", Scale: 1, Shape: 1.5}
	arr.Rate = 4 * arr.MeanBatch()
	scn, err := workload.OnePhase(0, 100, 2000, arr, workload.HoldSpec{Kind: "exp", Mean: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Capacity: 1e9, Util: benchUtil(b, "rigid"), Policy: sim.BestEffort,
			Workload: scn, Samples: 1,
			Seed1: uint64(i), Seed2: 12,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep engine and tabulation ---

// BenchmarkModelSweep measures a full figure-style capacity sweep (the 100
// grid points of the fig2 utility/gap panels) on a cold model, through the
// parallel sweep engine. Construction cost (including tabulation) is
// included: this is the figure harness's real unit of work.
func BenchmarkModelSweep(b *testing.B) {
	cs := sweep.Grid(10, 1000, 10)
	ctx := context.Background()
	for _, workers := range []int{1, 0} {
		name := "parallel"
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := benchModel(b, "poisson", "adaptive")
				_, err := sweep.Map(ctx, workers, cs, func(c float64) ([3]float64, error) {
					g, err := m.BandwidthGap(c)
					if err != nil {
						return [3]float64{}, err
					}
					return [3]float64{m.BestEffort(c), m.Reservation(c), g}, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBandwidthGap measures the Brent inversion on previously unseen
// capacities (cycling a large grid defeats the memo), i.e. the true cost of
// one Δ(C) evaluation on the tabulated model.
func BenchmarkBandwidthGap(b *testing.B) {
	m := benchModel(b, "poisson", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := 100 + float64(i%4096)*0.21
		if _, err := m.BandwidthGap(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTabulatedPMF measures per-term distribution queries inside the
// tabulated range — the innermost loop of every series in the core model —
// against the base distribution's analytic evaluation.
func BenchmarkTabulatedPMF(b *testing.B) {
	base := benchLoad(b, "poisson")
	tab := dist.Tabulate(base)
	b.Run("tabulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tab.PMF(i%800 + 1)
			_ = tab.TailMean(i % 800)
		}
	})
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = base.PMF(i%800 + 1)
			_ = base.TailMean(i % 800)
		}
	})
}

// --- Micro-benchmarks on hot paths ---

func BenchmarkMicroBestEffortPoisson(b *testing.B) {
	m := benchModel(b, "poisson", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.BestEffort(200)
	}
}

func BenchmarkMicroBestEffortAlgebraic(b *testing.B) {
	m := benchModel(b, "algebraic", "adaptive")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.BestEffort(200)
	}
}

func BenchmarkMicroBandwidthGapExponential(b *testing.B) {
	m := benchModel(b, "exponential", "rigid")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.BandwidthGap(200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroHurwitzZeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = numeric.HurwitzZeta(3, 101)
	}
}

func BenchmarkMicroLambertW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = numeric.LambertWm1(-0.01)
	}
}

func BenchmarkMicroAlgebraicPMF(b *testing.B) {
	d := benchLoad(b, "algebraic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.PMF(i%1000 + 1)
	}
}

func BenchmarkMicroAlgebraicConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dist.NewAlgebraicMean(3, kbar+float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F0/X1/X2/X3: §2 curves and §5 qualitative extensions ---

func BenchmarkF0FixedLoadCurves(b *testing.B) {
	rigid := benchUtil(b, "rigid")
	adaptive := benchUtil(b, "adaptive")
	for i := 0; i < b.N; i++ {
		_ = core.FixedLoadCurve(rigid, 100, 300)
		_ = core.FixedLoadCurve(adaptive, 100, 300)
		_ = core.FixedLoadCurve(utility.Elastic{}, 100, 300)
	}
}

func BenchmarkX1HeterogeneousFlows(b *testing.B) {
	rigid := benchUtil(b, "rigid")
	mix, err := utility.NewMixture([]utility.Component{
		{Fn: rigid, Weight: 0.5, Demand: 1},
		{Fn: rigid, Weight: 0.5, Demand: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(benchLoad(b, "algebraic"), mix)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{100, 400} {
			if _, err := m.BandwidthGap(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkX2NonstationaryLoads(b *testing.B) {
	mixed, err := dist.NewMixture(
		[]dist.Discrete{benchLoad(b, "exponential"), benchLoad(b, "algebraic")},
		[]float64{0.8, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(mixed, benchUtil(b, "rigid"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{200, 800} {
			if _, err := m.BandwidthGap(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkX3Footnote9ElasticSampling(b *testing.B) {
	m, err := core.New(benchLoad(b, "exponential"), utility.Elastic{})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := core.NewSamplingWithKMax(m, 10, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{80, 100, 150} {
			_ = sp.PerformanceGap(c)
		}
	}
}

func BenchmarkX4SchedulingEnforcement(b *testing.B) {
	sources := []sched.Source{
		{Flow: 1, Rate: 0.28, PacketSize: 0.01},
		{Flow: 2, Rate: 0.28, PacketSize: 0.01},
		{Flow: 3, Rate: 0.28, PacketSize: 0.01},
		{Flow: 99, Rate: 5, PacketSize: 0.01},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fq := sched.NewSCFQ()
		for f := 1; f <= 3; f++ {
			if err := fq.SetWeight(f, 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := fq.SetWeight(99, 0.05); err != nil {
			b.Fatal(err)
		}
		if _, err := sched.RunLink(fq, 1, sources, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSCFQEnqueueDequeue(b *testing.B) {
	s := sched.NewSCFQ()
	for i := 0; i < b.N; i++ {
		if err := s.Enqueue(sched.Packet{Flow: i % 16, Size: 1}); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Dequeue(); !ok {
			b.Fatal("unexpected empty queue")
		}
	}
}
