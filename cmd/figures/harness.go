package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"beqos/internal/continuum"
	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/report"
	"beqos/internal/sim"
	"beqos/internal/sweep"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// kbar is the paper's mean offered load.
const kbar = 100.0

// harness owns the output directory, grid sizing, and the worker budget for
// the parallel sweeps. Every grid is evaluated through sweep.Map, which
// preserves input order, so the emitted CSV rows are byte-identical to a
// sequential run regardless of the worker count.
type harness struct {
	dir     string
	quick   bool
	workers int
	ctx     context.Context
}

// context returns the harness's cancellation context.
func (h *harness) context() context.Context {
	if h.ctx != nil {
		return h.ctx
	}
	return context.Background()
}

// cGrid returns the capacity grid for the figure sweeps.
func (h *harness) cGrid() []float64 {
	step := 10.0
	if h.quick {
		step = 100
	}
	return sweep.Grid(step, 1000, step)
}

// pGrid returns a log-spaced price grid. Quick mode shrinks it to 3 points;
// sweep.LogGrid guards the degenerate n < 2 case.
func (h *harness) pGrid(lo, hi float64, n int) []float64 {
	if h.quick {
		n = 3
	}
	return sweep.LogGrid(lo, hi, n)
}

func (h *harness) writeCSV(name string, header []string, rows [][]float64) error {
	f, err := os.Create(filepath.Join(h.dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.WriteCSV(f, header, rows)
}

func (h *harness) writePlot(name string, p *report.Plot) error {
	f, err := os.Create(filepath.Join(h.dir, name+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Render(f, 72, 20)
}

func (h *harness) load(name string) (dist.Discrete, error) {
	switch name {
	case "poisson":
		return dist.NewPoisson(kbar)
	case "exponential":
		return dist.NewExponentialMean(kbar)
	case "algebraic":
		return dist.NewAlgebraicMean(3.0, kbar)
	default:
		return nil, fmt.Errorf("unknown load %q", name)
	}
}

func (h *harness) util(name string) (utility.Function, error) {
	switch name {
	case "rigid":
		return utility.NewRigid(1)
	case "adaptive":
		return utility.NewAdaptive(), nil
	default:
		return nil, fmt.Errorf("unknown utility %q", name)
	}
}

func (h *harness) model(loadName, utilName string) (*core.Model, error) {
	load, err := h.load(loadName)
	if err != nil {
		return nil, err
	}
	util, err := h.util(utilName)
	if err != nil {
		return nil, err
	}
	return core.New(load, util)
}

// fig1 renders the adaptive utility curve of Figure 1.
func (h *harness) fig1() error {
	a := utility.NewAdaptive()
	var rows [][]float64
	var xs, ys []float64
	for b := 0.0; b <= 10; b += 0.05 {
		v := a.Eval(b)
		rows = append(rows, []float64{b, v})
		xs = append(xs, b)
		ys = append(ys, v)
	}
	if err := h.writeCSV("fig1_adaptive_utility", []string{"b", "pi"}, rows); err != nil {
		return err
	}
	var p report.Plot
	p.Title = fmt.Sprintf("Figure 1: adaptive utility π(b) = 1 − exp(−b²/(κ+b)), κ = %.5f", a.Kappa)
	p.XLabel = "bandwidth b"
	p.YLabel = "π(b)"
	if err := p.Add(report.Series{Name: "π", X: xs, Y: ys}); err != nil {
		return err
	}
	return h.writePlot("fig1_adaptive_utility", &p)
}

// gapsRow is one capacity point of a figure's utility/gap panels.
type gapsRow struct {
	b, r, g float64
}

// gammaRow is one price point of a figure's welfare panel.
type gammaRow struct {
	gamma  float64
	pb, pr core.Provision
}

// figureFamily renders the six panels of Figures 2–4 for one load.
func (h *harness) figureFamily(prefix, loadName string) error {
	for _, utilName := range []string{"rigid", "adaptive"} {
		m, err := h.model(loadName, utilName)
		if err != nil {
			return err
		}
		// Panels a/d (utility curves) and b/e (bandwidth gap), swept in
		// parallel over the capacity grid.
		cs := h.cGrid()
		points, err := sweep.Map(h.context(), h.workers, cs, func(c float64) (gapsRow, error) {
			b := m.BestEffort(c)
			r := m.Reservation(c)
			g, gerr := m.BandwidthGap(c)
			if gerr != nil {
				return gapsRow{}, fmt.Errorf("%s/%s at C=%g: %w", loadName, utilName, c, gerr)
			}
			return gapsRow{b: b, r: r, g: g}, nil
		})
		if err != nil {
			return err
		}
		var utilRows, gapRows [][]float64
		var bs, rs, gaps []float64
		for i, c := range cs {
			pt := points[i]
			utilRows = append(utilRows, []float64{c, pt.b, pt.r, pt.r - pt.b})
			gapRows = append(gapRows, []float64{c, pt.g})
			bs = append(bs, pt.b)
			rs = append(rs, pt.r)
			gaps = append(gaps, pt.g)
		}
		base := fmt.Sprintf("%s_%s_%s", prefix, loadName, utilName)
		if err := h.writeCSV(base+"_utility", []string{"C", "B", "R", "delta"}, utilRows); err != nil {
			return err
		}
		if err := h.writeCSV(base+"_gap", []string{"C", "Delta"}, gapRows); err != nil {
			return err
		}
		var up report.Plot
		up.Title = fmt.Sprintf("%s: %s load, %s applications — normalized utility", prefix, loadName, utilName)
		up.XLabel = "capacity C"
		up.YLabel = "utility"
		if err := up.Add(report.Series{Name: "B(C)", X: cs, Y: bs}); err != nil {
			return err
		}
		if err := up.Add(report.Series{Name: "R(C)", X: cs, Y: rs}); err != nil {
			return err
		}
		if err := h.writePlot(base+"_utility", &up); err != nil {
			return err
		}
		var gp report.Plot
		gp.Title = fmt.Sprintf("%s: %s load, %s applications — bandwidth gap Δ(C)", prefix, loadName, utilName)
		gp.XLabel = "capacity C"
		gp.YLabel = "Δ"
		if err := gp.Add(report.Series{Name: "Δ(C)", X: cs, Y: gaps}); err != nil {
			return err
		}
		if err := h.writePlot(base+"_gap", &gp); err != nil {
			return err
		}
		// Panels c/f: equalizing price ratio γ(p), swept in parallel over
		// the price grid.
		lo := 1e-3
		if loadName == "algebraic" && utilName == "adaptive" {
			lo = 1e-2 // heavy case; see DESIGN.md timing notes
		}
		ps := h.pGrid(lo, 0.6, 10)
		gpoints, err := sweep.Map(h.context(), h.workers, ps, func(p float64) (gammaRow, error) {
			gamma, gerr := m.GammaEqualize(p)
			if gerr != nil {
				return gammaRow{}, fmt.Errorf("%s/%s γ(%g): %w", loadName, utilName, p, gerr)
			}
			pb, gerr := m.ProvisionBestEffort(p)
			if gerr != nil {
				return gammaRow{}, gerr
			}
			pr, gerr := m.ProvisionReservation(p)
			if gerr != nil {
				return gammaRow{}, gerr
			}
			return gammaRow{gamma: gamma, pb: pb, pr: pr}, nil
		})
		if err != nil {
			return err
		}
		var gammaRows [][]float64
		var gammas []float64
		for i, p := range ps {
			gr := gpoints[i]
			gammaRows = append(gammaRows, []float64{p, gr.gamma, gr.pb.Capacity, gr.pr.Capacity, gr.pb.Welfare, gr.pr.Welfare})
			gammas = append(gammas, gr.gamma)
		}
		if err := h.writeCSV(base+"_gamma",
			[]string{"p", "gamma", "C_B", "C_R", "W_B", "W_R"}, gammaRows); err != nil {
			return err
		}
		var pp report.Plot
		pp.Title = fmt.Sprintf("%s: %s load, %s applications — equalizing price ratio γ(p)", prefix, loadName, utilName)
		pp.XLabel = "price p"
		pp.YLabel = "γ"
		if err := pp.Add(report.Series{Name: "γ(p)", X: ps, Y: gammas}); err != nil {
			return err
		}
		if err := h.writePlot(base+"_gamma", &pp); err != nil {
			return err
		}
	}
	return nil
}

// t1Continuum cross-tabulates the continuum closed forms against
// quadrature.
func (h *harness) t1Continuum() error {
	expR, err := continuum.NewExpRigid(kbar)
	if err != nil {
		return err
	}
	expA, err := continuum.NewExpRamp(kbar, 0.5)
	if err != nil {
		return err
	}
	algR, err := continuum.NewAlgRigid(3)
	if err != nil {
		return err
	}
	algA, err := continuum.NewAlgRamp(3, 0.5)
	if err != nil {
		return err
	}
	type cfCase struct {
		name string
		b, r func(float64) float64
	}
	cases := []cfCase{
		{"exp/rigid", expR.BestEffort, expR.Reservation},
		{"exp/ramp(0.5)", expA.BestEffort, expA.Reservation},
		{"alg(3)/rigid", algR.BestEffort, algR.Reservation},
		{"alg(3)/ramp(0.5)", algA.BestEffort, algA.Reservation},
	}
	numerics := make([]*continuum.Numeric, len(cases))
	expD, err := dist.NewExpDensity(1 / kbar)
	if err != nil {
		return err
	}
	algD, err := dist.NewAlgDensity(3)
	if err != nil {
		return err
	}
	rigid, err := utility.NewRigid(1)
	if err != nil {
		return err
	}
	ramp, err := utility.NewRamp(0.5)
	if err != nil {
		return err
	}
	if numerics[0], err = continuum.NewNumeric(expD, rigid, nil); err != nil {
		return err
	}
	if numerics[1], err = continuum.NewNumeric(expD, ramp, nil); err != nil {
		return err
	}
	if numerics[2], err = continuum.NewNumeric(algD, rigid, nil); err != nil {
		return err
	}
	if numerics[3], err = continuum.NewNumeric(algD, ramp, nil); err != nil {
		return err
	}
	tb := report.NewTable("case", "C", "B closed", "B quad", "R closed", "R quad")
	var rows [][]float64
	for i, cse := range cases {
		for _, c := range []float64{50, 200, 800} {
			bc, bq := cse.b(c), numerics[i].BestEffort(c)
			rc, rq := cse.r(c), numerics[i].Reservation(c)
			tb.AddRow(cse.name, c, bc, bq, rc, rq)
			rows = append(rows, []float64{float64(i), c, bc, bq, rc, rq})
		}
	}
	if err := h.writeCSV("t1_continuum", []string{"case", "C", "B_closed", "B_quad", "R_closed", "R_quad"}, rows); err != nil {
		return err
	}
	return h.writeTable("t1_continuum", tb)
}

func (h *harness) writeTable(name string, tb *report.Table) error {
	f, err := os.Create(filepath.Join(h.dir, name+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.Render(f)
}

// t2WorstCase sweeps z toward 2 to exhibit the e−1 and e bounds.
func (h *harness) t2WorstCase() error {
	tb := report.NewTable("z", "gap ratio (z−1)^(1/(z−2))", "Δ/C slope", "γ(p→0)")
	var rows [][]float64
	for _, z := range []float64{4, 3.5, 3, 2.7, 2.5, 2.3, 2.2, 2.1, 2.05, 2.01} {
		cf, err := continuum.NewAlgRigid(z)
		if err != nil {
			return err
		}
		ratio := cf.GapRatio()
		gamma, err := cf.GammaEqualize(1e-8)
		if err != nil {
			return err
		}
		tb.AddRow(z, ratio, ratio-1, gamma)
		rows = append(rows, []float64{z, ratio, ratio - 1, gamma})
	}
	tb.AddRow("z→2⁺ bound", continuum.WorstCaseGammaLimit(), continuum.WorstCaseGapSlope(), continuum.WorstCaseGammaLimit())
	if err := h.writeCSV("t2_worstcase", []string{"z", "ratio", "slope", "gamma0"}, rows); err != nil {
		return err
	}
	return h.writeTable("t2_worstcase", tb)
}

// t3SlowTail measures the Δ(C) growth exponent for slow-tail utilities.
func (h *harness) t3SlowTail() error {
	type stCase struct{ z, tau float64 }
	cases := []stCase{
		{3, 2}, {3.5, 1.5}, {4, 1.5}, {4, 1.2}, {4.5, 1},
	}
	type stRow struct{ predicted, measured float64 }
	points, err := sweep.Map(h.context(), h.workers, cases, func(cse stCase) (stRow, error) {
		st, err := utility.NewSlowTail(cse.tau)
		if err != nil {
			return stRow{}, err
		}
		d, err := dist.NewAlgDensity(cse.z)
		if err != nil {
			return stRow{}, err
		}
		num, err := continuum.NewNumeric(d, st, st.KStar)
		if err != nil {
			return stRow{}, err
		}
		c1, c2 := 300.0, 1200.0
		g1, err := num.BandwidthGap(c1)
		if err != nil {
			return stRow{}, err
		}
		g2, err := num.BandwidthGap(c2)
		if err != nil {
			return stRow{}, err
		}
		return stRow{
			predicted: continuum.SlowTailGapExponent(cse.z, cse.tau),
			measured:  math.Log(g2/g1) / math.Log(c2/c1),
		}, nil
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("z", "tau", "predicted exponent", "measured exponent")
	var rows [][]float64
	for i, cse := range cases {
		tb.AddRow(cse.z, cse.tau, points[i].predicted, points[i].measured)
		rows = append(rows, []float64{cse.z, cse.tau, points[i].predicted, points[i].measured})
	}
	if err := h.writeCSV("t3_slowtail", []string{"z", "tau", "predicted", "measured"}, rows); err != nil {
		return err
	}
	return h.writeTable("t3_slowtail", tb)
}

// e1Sampling sweeps the §5.1 extension. The four load/utility combinations
// are independent models, so they run concurrently; within one combination
// the (S, C) grid stays sequential to keep each worker's cache walk warm.
func (h *harness) e1Sampling() error {
	sValues := []int{1, 2, 5, 10}
	cValues := []float64{50, 100, 150, 200, 300, 400}
	if h.quick {
		sValues = []int{1, 10}
		cValues = []float64{100, 200}
	}
	type combo struct{ loadName, utilName string }
	var combos []combo
	for _, loadName := range []string{"exponential", "algebraic"} {
		for _, utilName := range []string{"rigid", "adaptive"} {
			combos = append(combos, combo{loadName, utilName})
		}
	}
	type comboRow struct {
		s    int
		c    float64
		d, g float64
	}
	results, err := sweep.Map(h.context(), h.workers, combos, func(cb combo) ([]comboRow, error) {
		m, err := h.model(cb.loadName, cb.utilName)
		if err != nil {
			return nil, err
		}
		var out []comboRow
		for _, s := range sValues {
			sp, err := core.NewSampling(m, s)
			if err != nil {
				return nil, err
			}
			for _, c := range cValues {
				d := sp.PerformanceGap(c)
				g, err := sp.BandwidthGap(c)
				if err != nil {
					return nil, err
				}
				out = append(out, comboRow{s: s, c: c, d: d, g: g})
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	var rows [][]float64
	tb := report.NewTable("load", "util", "S", "C", "delta_S", "Delta_S")
	for i, cb := range combos {
		for _, r := range results[i] {
			tb.AddRow(cb.loadName, cb.utilName, r.s, r.c, r.d, r.g)
			rows = append(rows, []float64{float64(r.s), r.c, r.d, r.g})
		}
	}
	if err := h.writeCSV("e1_sampling", []string{"S", "C", "delta", "Delta"}, rows); err != nil {
		return err
	}
	if err := h.writeTable("e1_sampling", tb); err != nil {
		return err
	}
	// Welfare under sampling: γ(p) for the exp/adaptive S = 10 case the
	// paper's §5.1 numbers correspond to, against the basic model.
	m, err := h.model("exponential", "adaptive")
	if err != nil {
		return err
	}
	sp, err := core.NewSampling(m, 10)
	if err != nil {
		return err
	}
	ps := []float64{0.1, 0.03, 0.01}
	if h.quick {
		ps = []float64{0.1}
	}
	type gpair struct{ gb, gs float64 }
	gpoints, err := sweep.Map(h.context(), h.workers, ps, func(p float64) (gpair, error) {
		gb, err := m.GammaEqualize(p)
		if err != nil {
			return gpair{}, err
		}
		gs, err := sp.GammaEqualize(p)
		if err != nil {
			return gpair{}, err
		}
		return gpair{gb: gb, gs: gs}, nil
	})
	if err != nil {
		return err
	}
	gtb := report.NewTable("p", "gamma_basic", "gamma_S10")
	var grows [][]float64
	for i, p := range ps {
		gtb.AddRow(p, gpoints[i].gb, gpoints[i].gs)
		grows = append(grows, []float64{p, gpoints[i].gb, gpoints[i].gs})
	}
	if err := h.writeCSV("e1_sampling_gamma", []string{"p", "gamma_basic", "gamma_S10"}, grows); err != nil {
		return err
	}
	return h.writeTable("e1_sampling_gamma", gtb)
}

// e2SamplingAsym tabulates the §5.1 asymptotic ratios.
func (h *harness) e2SamplingAsym() error {
	tb := report.NewTable("z", "S", "rigid ratio (S(z−1))^(1/(z−2))", "ramp(0.5) ratio")
	var rows [][]float64
	for _, z := range []float64{4, 3, 2.5, 2.2} {
		for _, s := range []int{1, 2, 5, 10} {
			rig := continuum.SamplingAlgRigidRatio(z, s)
			ram := continuum.SamplingAlgRampRatio(z, 0.5, s)
			tb.AddRow(z, s, rig, ram)
			rows = append(rows, []float64{z, float64(s), rig, ram})
		}
	}
	if err := h.writeCSV("e2_sampling_asym", []string{"z", "S", "rigid", "ramp"}, rows); err != nil {
		return err
	}
	return h.writeTable("e2_sampling_asym", tb)
}

// e3Retry sweeps the §5.2 extension with α = 0.1. Each load/utility
// combination owns its model and retry caches, so the six combinations run
// concurrently on the worker pool.
func (h *harness) e3Retry() error {
	const alpha = 0.1
	cValues := []float64{150, 200, 300, 400, 600}
	if h.quick {
		cValues = []float64{200, 400}
	}
	type combo struct{ loadName, utilName string }
	var combos []combo
	for _, loadName := range []string{"poisson", "exponential", "algebraic"} {
		for _, utilName := range []string{"rigid", "adaptive"} {
			combos = append(combos, combo{loadName, utilName})
		}
	}
	type retryRow struct {
		c                 float64
		dB, dR, g         float64
		effMean, blocking float64
	}
	results, err := sweep.Map(h.context(), h.workers, combos, func(cb combo) ([]retryRow, error) {
		m, err := h.model(cb.loadName, cb.utilName)
		if err != nil {
			return nil, err
		}
		rt, err := core.NewRetry(m, alpha)
		if err != nil {
			return nil, err
		}
		var out []retryRow
		for _, c := range cValues {
			dB := m.PerformanceGap(c)
			dR, err := rt.PerformanceGap(c)
			if err != nil {
				return nil, err
			}
			g, err := rt.BandwidthGap(c)
			if err != nil {
				return nil, err
			}
			fp, err := rt.Equilibrium(c)
			if err != nil {
				return nil, err
			}
			out = append(out, retryRow{c: c, dB: dB, dR: dR, g: g, effMean: fp.EffectiveMean, blocking: fp.Blocking})
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("load", "util", "C", "delta_basic", "delta_retry", "Delta_retry", "L_hat", "theta")
	var rows [][]float64
	for i, cb := range combos {
		for _, r := range results[i] {
			tb.AddRow(cb.loadName, cb.utilName, r.c, r.dB, r.dR, r.g, r.effMean, r.blocking)
			rows = append(rows, []float64{r.c, r.dB, r.dR, r.g, r.effMean, r.blocking})
		}
	}
	if err := h.writeCSV("e3_retry", []string{"C", "delta_basic", "delta_retry", "Delta_retry", "L_hat", "theta"}, rows); err != nil {
		return err
	}
	// The headline welfare result: retry γ(p) for the algebraic/adaptive
	// case grows as bandwidth cheapens.
	m, err := h.model("algebraic", "adaptive")
	if err != nil {
		return err
	}
	rt, err := core.NewRetry(m, alpha)
	if err != nil {
		return err
	}
	ps := []float64{0.2, 0.1, 0.03, 0.01}
	if h.quick {
		ps = []float64{0.1}
	}
	type gpair struct{ gb, gr float64 }
	gpoints, err := sweep.Map(h.context(), h.workers, ps, func(p float64) (gpair, error) {
		gb, err := m.GammaEqualize(p)
		if err != nil {
			return gpair{}, err
		}
		gr, err := rt.GammaEqualize(p)
		if err != nil {
			return gpair{}, err
		}
		return gpair{gb: gb, gr: gr}, nil
	})
	if err != nil {
		return err
	}
	gtb := report.NewTable("p", "gamma_basic", "gamma_retry")
	var grows [][]float64
	for i, p := range ps {
		gtb.AddRow(p, gpoints[i].gb, gpoints[i].gr)
		grows = append(grows, []float64{p, gpoints[i].gb, gpoints[i].gr})
	}
	if err := h.writeCSV("e3_retry_gamma", []string{"p", "gamma_basic", "gamma_retry"}, grows); err != nil {
		return err
	}
	if err := h.writeTable("e3_retry_gamma", gtb); err != nil {
		return err
	}
	return h.writeTable("e3_retry", tb)
}

// e4RetryAsym tabulates the §5.2 asymptotic ratios.
func (h *harness) e4RetryAsym() error {
	tb := report.NewTable("z", "alpha", "rigid ratio ((z−1)/α)^(1/(z−2))", "ramp(0.5) ratio")
	var rows [][]float64
	for _, z := range []float64{4, 3, 2.5, 2.2} {
		for _, alpha := range []float64{0.5, 0.1, 0.01} {
			rig := continuum.RetryAlgRigidRatio(z, alpha)
			ram := continuum.RetryAlgRampRatio(z, 0.5, alpha)
			tb.AddRow(z, alpha, rig, ram)
			rows = append(rows, []float64{z, alpha, rig, ram})
		}
	}
	if err := h.writeCSV("e4_retry_asym", []string{"z", "alpha", "rigid", "ramp"}, rows); err != nil {
		return err
	}
	return h.writeTable("e4_retry_asym", tb)
}

// s1SimPoisson validates the analytical model against simulated Poisson
// dynamics. The six (capacity, policy) runs are independent seeded
// simulations, so they run concurrently.
func (h *harness) s1SimPoisson() error {
	horizon := 30000.0
	if h.quick {
		horizon = 3000
	}
	rigid, err := utility.NewRigid(1)
	if err != nil {
		return err
	}
	scn, err := workload.OnePhase(0, horizon/60, horizon,
		workload.ArrivalSpec{Kind: "poisson", Rate: 10}, workload.HoldSpec{Kind: "exp", Mean: 10})
	if err != nil {
		return err
	}
	load, err := dist.NewPoisson(kbar)
	if err != nil {
		return err
	}
	m, err := core.New(load, rigid)
	if err != nil {
		return err
	}
	type simCase struct {
		c      float64
		policy sim.Policy
	}
	var cases []simCase
	for _, c := range []float64{90, 110, 130} {
		for _, policy := range []sim.Policy{sim.BestEffort, sim.Reservation} {
			cases = append(cases, simCase{c: c, policy: policy})
		}
	}
	type simRow struct {
		simUtil, modelUtil, blocking float64
	}
	points, err := sweep.Map(h.context(), h.workers, cases, func(cse simCase) (simRow, error) {
		res, err := sim.Run(sim.Config{
			Capacity: cse.c, Util: rigid, Policy: cse.policy,
			Workload: scn, Samples: 1,
			Seed1: 1, Seed2: 2,
		})
		if err != nil {
			return simRow{}, err
		}
		want := m.BestEffort(cse.c)
		if cse.policy == sim.Reservation {
			want = m.Reservation(cse.c)
		}
		return simRow{simUtil: res.MeanUtility, modelUtil: want, blocking: res.BlockingRate}, nil
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("C", "policy", "sim utility", "model utility", "sim blocking")
	var rows [][]float64
	for i, cse := range cases {
		pt := points[i]
		tb.AddRow(cse.c, cse.policy.String(), pt.simUtil, pt.modelUtil, pt.blocking)
		rows = append(rows, []float64{cse.c, float64(cse.policy), pt.simUtil, pt.modelUtil, pt.blocking})
	}
	if err := h.writeCSV("s1_sim_poisson", []string{"C", "policy", "sim_util", "model_util", "blocking"}, rows); err != nil {
		return err
	}
	return h.writeTable("s1_sim_poisson", tb)
}

// s2SimHeavyTail contrasts measured session-traffic loads with Poisson.
func (h *harness) s2SimHeavyTail() error {
	horizon := 40000.0
	if h.quick {
		horizon = 4000
	}
	rigid, err := utility.NewRigid(1)
	if err != nil {
		return err
	}
	// Both traffics offer k̄ = 100 with mean hold 8: Poisson flows at rate
	// 12.5, or Poisson sessions each landing a Pareto(1, 1.5) batch, whose
	// rate= also counts flows (sessions/unit = 12.5/ζ(1.5) ≈ 4.79).
	hold := workload.HoldSpec{Kind: "exp", Mean: 8}
	type tailCase struct {
		name string
		arr  workload.ArrivalSpec
	}
	cases := []tailCase{
		{"poisson", workload.ArrivalSpec{Kind: "poisson", Rate: 100.0 / 8}},
		{"sessions", workload.ArrivalSpec{Kind: "session", Rate: 100.0 / 8, Scale: 1, Shape: 1.5}},
	}
	type tailRow struct {
		mean, variance, d, g float64
	}
	points, err := sweep.Map(h.context(), h.workers, cases, func(tc tailCase) (tailRow, error) {
		scn, err := workload.OnePhase(0, horizon/40, horizon, tc.arr, hold)
		if err != nil {
			return tailRow{}, err
		}
		res, err := sim.Run(sim.Config{
			Capacity: 1e9, Util: rigid, Policy: sim.BestEffort,
			Workload: scn, Samples: 1,
			Seed1: 11, Seed2: 12,
		})
		if err != nil {
			return tailRow{}, err
		}
		mean := res.AvgOccupancy
		variance := res.Occupancy.SquareTailMean(-1) - mean*mean
		m, err := core.New(res.Occupancy, rigid)
		if err != nil {
			return tailRow{}, err
		}
		d := m.PerformanceGap(150)
		g, err := m.BandwidthGap(150)
		if err != nil {
			return tailRow{}, err
		}
		return tailRow{mean: mean, variance: variance, d: d, g: g}, nil
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("traffic", "mean occ", "occ variance", "delta(150)", "Delta(150)")
	var rows [][]float64
	for i, tc := range cases {
		pt := points[i]
		tb.AddRow(tc.name, pt.mean, pt.variance, pt.d, pt.g)
		rows = append(rows, []float64{float64(i), pt.mean, pt.variance, pt.d, pt.g})
	}
	if err := h.writeCSV("s2_sim_heavytail", []string{"traffic", "mean", "variance", "delta150", "Delta150"}, rows); err != nil {
		return err
	}
	return h.writeTable("s2_sim_heavytail", tb)
}
