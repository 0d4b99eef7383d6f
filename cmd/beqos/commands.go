package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"time"

	"beqos"
	"beqos/internal/obs/obshttp"
	"beqos/internal/report"
	"beqos/internal/resv"
	"beqos/internal/sim"
	"beqos/internal/sweep"
)

// modelFlags registers the shared -load/-mean/-z/-util flags on fs and
// returns a builder that resolves them into a Model after parsing.
func modelFlags(fs *flag.FlagSet) func() (*beqos.Model, error) {
	loadName := fs.String("load", "poisson", "load distribution: poisson, exponential, algebraic, trace")
	mean := fs.Float64("mean", 100, "mean offered load k̄")
	z := fs.Float64("z", 3.0, "algebraic tail power (with -load algebraic)")
	traceFile := fs.String("trace", "", "file of whitespace-separated load samples (with -load trace)")
	utilName := fs.String("util", "rigid", "utility function: rigid, adaptive, elastic")
	return func() (*beqos.Model, error) {
		var load beqos.Load
		var err error
		switch *loadName {
		case "poisson":
			load, err = beqos.PoissonLoad(*mean)
		case "exponential":
			load, err = beqos.ExponentialLoad(*mean)
		case "algebraic":
			load, err = beqos.AlgebraicLoad(*z, *mean)
		case "trace":
			load, err = loadTrace(*traceFile)
		default:
			return nil, fmt.Errorf("unknown load %q", *loadName)
		}
		if err != nil {
			return nil, err
		}
		util, err := modelUtility(*utilName, true)
		if err != nil {
			return nil, err
		}
		return beqos.NewModel(load, util)
	}
}

// loadTrace reads whitespace-separated integer load samples from a file.
func loadTrace(path string) (beqos.Load, error) {
	if path == "" {
		return beqos.Load{}, fmt.Errorf("-load trace requires -trace FILE")
	}
	f, err := os.Open(path)
	if err != nil {
		return beqos.Load{}, err
	}
	defer f.Close()
	var samples []int
	sc := bufio.NewScanner(f)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		v, err := strconv.Atoi(sc.Text())
		if err != nil {
			return beqos.Load{}, fmt.Errorf("trace %s: %w", path, err)
		}
		samples = append(samples, v)
	}
	if err := sc.Err(); err != nil {
		return beqos.Load{}, err
	}
	return beqos.TraceLoad(samples)
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	build := modelFlags(fs)
	capacity := fs.Float64("capacity", 200, "link capacity C")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	b := m.BestEffort(*capacity)
	r := m.Reservation(*capacity)
	gap, err := m.BandwidthGap(*capacity)
	if err != nil {
		return err
	}
	tb := report.NewTable("quantity", "value")
	tb.AddRow("capacity C", *capacity)
	tb.AddRow("kmax(C)", m.KMax(*capacity))
	tb.AddRow("best-effort B(C)", b)
	tb.AddRow("reservation R(C)", r)
	tb.AddRow("performance gap δ(C)", r-b)
	tb.AddRow("bandwidth gap Δ(C)", gap)
	return tb.Render(os.Stdout)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	build := modelFlags(fs)
	cmin := fs.Float64("cmin", 50, "first capacity")
	cmax := fs.Float64("cmax", 1000, "last capacity")
	step := fs.Float64("step", 50, "capacity step")
	csvOut := fs.Bool("csv", false, "emit CSV instead of a table")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*step > 0) || !(*cmax >= *cmin) {
		return fmt.Errorf("need cmin ≤ cmax and step > 0")
	}
	m, err := build()
	if err != nil {
		return err
	}
	// The sweep runs in parallel; sweep.Map preserves grid order, so the
	// table and CSV are identical for every worker count.
	cs := sweep.Grid(*cmin, *cmax, *step)
	rows, err := sweep.Map(context.Background(), *parallel, cs, func(c float64) ([]float64, error) {
		b := m.BestEffort(c)
		r := m.Reservation(c)
		gap, err := m.BandwidthGap(c)
		if err != nil {
			return nil, err
		}
		return []float64{c, b, r, r - b, gap}, nil
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("C", "B(C)", "R(C)", "delta", "Delta")
	for _, row := range rows {
		tb.AddRow(row[0], row[1], row[2], row[3], row[4])
	}
	if *csvOut {
		return report.WriteCSV(os.Stdout, []string{"C", "B", "R", "delta", "Delta"}, rows)
	}
	return tb.Render(os.Stdout)
}

func cmdWelfare(args []string) error {
	fs := flag.NewFlagSet("welfare", flag.ExitOnError)
	build := modelFlags(fs)
	price := fs.Float64("price", 0.01, "unit bandwidth price p")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	pb, err := m.ProvisionBestEffort(*price)
	if err != nil {
		return err
	}
	pr, err := m.ProvisionReservation(*price)
	if err != nil {
		return err
	}
	gamma, err := m.GammaEqualize(*price)
	if err != nil {
		return err
	}
	tb := report.NewTable("quantity", "best-effort", "reservation")
	tb.AddRow("capacity C(p)", pb.Capacity, pr.Capacity)
	tb.AddRow("welfare W(p)", pb.Welfare, pr.Welfare)
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	_, err = fmt.Printf("\nequalizing price ratio γ(%g) = %.4f\n"+
		"(reservation bandwidth may cost up to %.1f%% more and still win)\n",
		*price, gamma, (gamma-1)*100)
	return err
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	capacity := fs.Float64("capacity", 120, "link capacity C")
	rate := fs.Float64("rate", 10, "flow arrival rate")
	hold := fs.Float64("hold", 10, "mean holding time")
	reserve := fs.Bool("reserve", false, "enable reservation admission control")
	horizon := fs.Float64("horizon", 20000, "simulated duration")
	samples := fs.Int("samples", 1, "utility samples per flow (0 = time average)")
	seed := fs.Uint64("seed", 1, "random seed")
	utilName := fs.String("util", "rigid", "utility function: rigid, adaptive")
	workloadPath := fs.String("workload", "", "drive the run from a declarative scenario spec file (-rate/-hold/-horizon are ignored; per-phase results)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workloadPath != "" {
		return simWorkload(*workloadPath, *capacity, *utilName, *reserve, *samples, *seed)
	}
	util, err := modelUtility(*utilName, false)
	if err != nil {
		return err
	}
	traffic, err := beqos.PoissonTraffic(*rate, *hold)
	if err != nil {
		return err
	}
	res, err := beqos.Simulate(beqos.SimConfig{
		Capacity:     *capacity,
		Util:         util,
		Traffic:      traffic,
		Reservations: *reserve,
		Horizon:      *horizon,
		Warmup:       *horizon / 20,
		Samples:      *samples,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("quantity", "value")
	tb.AddRow("offered load", *rate**hold)
	tb.AddRow("mean occupancy", res.MeanOccupancy)
	tb.AddRow("flows", res.Flows)
	tb.AddRow("admitted", res.Admitted)
	tb.AddRow("rejected", res.Rejected)
	tb.AddRow("blocking rate", res.BlockingRate)
	tb.AddRow("mean per-flow utility", res.MeanUtility)
	return tb.Render(os.Stdout)
}

// simWorkload runs the flow-level simulator from a declarative scenario
// spec and reports per-phase arrival/admission breakdowns.
func simWorkload(path string, capacity float64, utilName string, reserve bool, samples int, seed uint64) error {
	scn, err := loadWorkloadSpec(path)
	if err != nil {
		return err
	}
	util, err := parseUtility(utilName)
	if err != nil {
		return err
	}
	pol := sim.BestEffort
	if reserve {
		pol = sim.Reservation
	}
	res, err := sim.Run(sim.Config{
		Capacity: capacity,
		Util:     util,
		Policy:   pol,
		Workload: scn,
		Samples:  samples,
		Seed1:    seed,
		Seed2:    seed ^ 0x9e3779b97f4a7c15,
	})
	if err != nil {
		return err
	}
	fmt.Printf("beqos: sim scenario %q (%s, capacity %g, util %s, %g time units, seed %d)\n",
		scn.Name, pol, capacity, util.Name(), scn.Duration(), seed)
	tb := report.NewTable("quantity", "value")
	tb.AddRow("mean occupancy", res.AvgOccupancy)
	tb.AddRow("flows", res.Flows)
	tb.AddRow("admitted", res.Admitted)
	tb.AddRow("rejected", res.Rejected)
	tb.AddRow("mean per-flow utility", res.MeanUtility)
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	pt := report.NewTable("phase", "window", "flows", "admitted", "rejected")
	for i, ph := range scn.Phases {
		pt.AddRow(ph.Name, fmt.Sprintf("[%g, %g)", ph.Start, ph.Start+ph.Duration),
			res.PhaseFlows[i], res.PhaseAdmitted[i], res.PhaseRejected[i])
	}
	return pt.Render(os.Stdout)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":4742", "listen address")
	capacity := fs.Float64("capacity", 8, "link capacity C")
	utilName := fs.String("util", "rigid", "utility function: rigid, adaptive")
	ttl := fs.Duration("ttl", 0, "soft-state TTL: unrefreshed reservations expire (0 = never)")
	transport := fs.String("transport", "tcp", "serving transport: tcp (stream clients), udp (datagram mode), all (both on the same address)")
	quiet := fs.Bool("quiet", false, "suppress per-event logging")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	policyName := fs.String("policy", "counting", "admission policy: counting, bandwidth, token-bucket, tiered, measured")
	knobs := registerPolicyKnobs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	util, err := parseUtility(*utilName)
	if err != nil {
		return err
	}
	pol, err := buildServePolicy(*policyName, *capacity, util, knobs)
	if err != nil {
		return err
	}
	srv, err := resv.NewServerPolicy(pol, *ttl)
	if err != nil {
		return err
	}
	defer srv.Close()
	if !*quiet {
		srv.Logf = func(format string, a ...interface{}) {
			fmt.Printf(format+"\n", a...)
		}
	}
	var ln net.Listener
	var pc net.PacketConn
	switch *transport {
	case "tcp", "all":
		if ln, err = net.Listen("tcp", *addr); err != nil {
			return err
		}
	case "udp":
	default:
		return fmt.Errorf("unknown -transport %q (want tcp, udp, or all)", *transport)
	}
	if *transport == "udp" || *transport == "all" {
		if pc, err = net.ListenPacket("udp", *addr); err != nil {
			if ln != nil {
				_ = ln.Close()
			}
			return err
		}
	}
	ttlNote := "reservations never expire"
	if *ttl > 0 {
		ttlNote = fmt.Sprintf("soft-state TTL %v", *ttl)
	}
	if ln != nil {
		fmt.Printf("beqos: admission server on tcp %s (capacity %g, policy %s, kmax %d, %d shards, %s)\n",
			ln.Addr(), *capacity, pol.Name(), srv.KMax(), srv.Shards(), ttlNote)
	}
	if pc != nil {
		fmt.Printf("beqos: admission server on udp %s (capacity %g, policy %s, kmax %d, %d shards, %s)\n",
			pc.LocalAddr(), *capacity, pol.Name(), srv.KMax(), srv.Shards(), ttlNote)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var dln net.Listener
	if *debugAddr != "" {
		dln, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			if ln != nil {
				_ = ln.Close()
			}
			if pc != nil {
				_ = pc.Close()
			}
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Printf("beqos: observability on http://%s (/metrics, /healthz, /debug/pprof/)\n", dln.Addr())
		go func() { _ = http.Serve(dln, obshttp.DebugMux(srv.Registry())) }()
	}
	go func() {
		<-ctx.Done()
		if ln != nil {
			_ = ln.Close()
		}
		if pc != nil {
			_ = pc.Close()
		}
		if dln != nil {
			_ = dln.Close()
		}
	}()
	errc := make(chan error, 2)
	if ln != nil {
		go func() { errc <- srv.Serve(ln) }()
	}
	if pc != nil {
		go func() { errc <- srv.ServePacket(pc) }()
	}
	err = <-errc
	if ctx.Err() != nil {
		fmt.Println("beqos: shutting down")
		return nil
	}
	return err
}

func cmdReserve(args []string) error {
	fs := flag.NewFlagSet("reserve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:4742", "server address")
	flows := fs.Int("flows", 12, "number of reservations to request")
	hold := fs.Duration("hold", 2*time.Second, "how long to hold granted reservations")
	retries := fs.Int("retries", 0, "retry attempts per denied flow")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client, err := beqos.DialAdmission(ctx, "tcp", *addr)
	if err != nil {
		return err
	}
	defer client.Close()
	granted, denied := 0, 0
	for id := 1; id <= *flows; id++ {
		var ok bool
		var share float64
		var nRetries int
		if *retries > 0 {
			ok, share, nRetries, err = client.ReserveWithRetry(ctx, uint64(id), 1, beqos.AdmissionRetryPolicy{
				MaxAttempts: *retries + 1,
				BaseDelay:   100 * time.Millisecond,
				Multiplier:  1.5,
				Jitter:      0.3,
			})
		} else {
			ok, share, err = client.Reserve(ctx, uint64(id), 1)
		}
		if err != nil {
			return err
		}
		if ok {
			granted++
			fmt.Printf("flow %2d: GRANTED share %.3g (after %d retries)\n", id, share, nRetries)
		} else {
			denied++
			fmt.Printf("flow %2d: DENIED\n", id)
		}
	}
	kmax, active, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\ngranted %d, denied %d; server at %d/%d reservations\n", granted, denied, active, kmax)
	if *hold > 0 && granted > 0 {
		fmt.Printf("holding reservations for %v…\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

func cmdGamma(args []string) error {
	fs := flag.NewFlagSet("gamma", flag.ExitOnError)
	build := modelFlags(fs)
	pmin := fs.Float64("pmin", 0.001, "lowest price")
	pmax := fs.Float64("pmax", 0.5, "highest price")
	points := fs.Int("points", 8, "log-spaced price points")
	csvOut := fs.Bool("csv", false, "emit CSV instead of a table")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*pmin > 0) || !(*pmax > *pmin) || *points < 2 {
		return fmt.Errorf("need 0 < pmin < pmax and ≥ 2 points")
	}
	m, err := build()
	if err != nil {
		return err
	}
	ps := sweep.LogGrid(*pmin, *pmax, *points)
	rows, err := sweep.Map(context.Background(), *parallel, ps, func(p float64) ([]float64, error) {
		g, err := m.GammaEqualize(p)
		if err != nil {
			return nil, err
		}
		pb, err := m.ProvisionBestEffort(p)
		if err != nil {
			return nil, err
		}
		pr, err := m.ProvisionReservation(p)
		if err != nil {
			return nil, err
		}
		return []float64{p, g, pb.Capacity, pr.Capacity, pb.Welfare, pr.Welfare}, nil
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("p", "gamma", "C_B", "C_R", "W_B", "W_R")
	for _, row := range rows {
		tb.AddRow(row[0], row[1], row[2], row[3], row[4], row[5])
	}
	if *csvOut {
		return report.WriteCSV(os.Stdout, []string{"p", "gamma", "C_B", "C_R", "W_B", "W_R"}, rows)
	}
	return tb.Render(os.Stdout)
}

func cmdFixedLoad(args []string) error {
	fs := flag.NewFlagSet("fixedload", flag.ExitOnError)
	capacity := fs.Float64("capacity", 100, "link capacity C")
	utilName := fs.String("util", "rigid", "utility function: rigid, adaptive, elastic")
	ktop := fs.Int("ktop", 0, "tabulate V(k) up to this k (0 = summary only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	util, err := modelUtility(*utilName, true)
	if err != nil {
		return err
	}
	kmax, v, finite := beqos.FixedLoadOptimum(util, *capacity)
	if !finite {
		fmt.Printf("V(k) = k·π(C/k) increases without a finite maximum at C = %g:\n", *capacity)
		fmt.Println("the utility is elastic; admission control never helps and the")
		fmt.Println("best-effort-only architecture is ideal (§2).")
	} else {
		fmt.Printf("V(k) = k·π(C/k) peaks at kmax = %d with V = %.4f at C = %g:\n", kmax, v, *capacity)
		fmt.Println("admission control should deny service beyond kmax (§2).")
	}
	if *ktop > 0 {
		tb := report.NewTable("k", "V(k)")
		for k := 1; k <= *ktop; k++ {
			tb.AddRow(k, beqos.FixedLoadTotalUtility(util, *capacity, k))
		}
		fmt.Println()
		return tb.Render(os.Stdout)
	}
	return nil
}

func cmdPlot(args []string) error {
	fs := flag.NewFlagSet("plot", flag.ExitOnError)
	build := modelFlags(fs)
	cmin := fs.Float64("cmin", 10, "first capacity")
	cmax := fs.Float64("cmax", 1000, "last capacity")
	points := fs.Int("points", 60, "number of capacities")
	gap := fs.Bool("gap", false, "plot the bandwidth gap Δ(C) instead of B/R")
	width := fs.Int("width", 72, "plot width in characters")
	height := fs.Int("height", 18, "plot height in characters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*cmin > 0) || !(*cmax > *cmin) || *points < 2 {
		return fmt.Errorf("need 0 < cmin < cmax and ≥ 2 points")
	}
	m, err := build()
	if err != nil {
		return err
	}
	step := (*cmax - *cmin) / float64(*points-1)
	var cs, bs, rs, gaps []float64
	for i := 0; i < *points; i++ {
		c := *cmin + float64(i)*step
		cs = append(cs, c)
		if *gap {
			g, err := m.BandwidthGap(c)
			if err != nil {
				return err
			}
			gaps = append(gaps, g)
		} else {
			bs = append(bs, m.BestEffort(c))
			rs = append(rs, m.Reservation(c))
		}
	}
	var p report.Plot
	p.XLabel = "capacity C"
	if *gap {
		p.Title = "bandwidth gap Δ(C): extra capacity best-effort needs"
		p.YLabel = "Δ"
		if err := p.Add(report.Series{Name: "Δ(C)", X: cs, Y: gaps}); err != nil {
			return err
		}
	} else {
		p.Title = "per-flow utility: best-effort vs reservations"
		p.YLabel = "utility"
		if err := p.Add(report.Series{Name: "B(C)", X: cs, Y: bs}); err != nil {
			return err
		}
		if err := p.Add(report.Series{Name: "R(C)", X: cs, Y: rs}); err != nil {
			return err
		}
	}
	return p.Render(os.Stdout, *width, *height)
}

func cmdExtension(args []string) error {
	fs := flag.NewFlagSet("extension", flag.ExitOnError)
	build := modelFlags(fs)
	capacity := fs.Float64("capacity", 200, "link capacity C")
	samples := fs.Int("samples", 0, "sampling extension: judge flows by the worst of S samples")
	alpha := fs.Float64("retry-alpha", -1, "retry extension: per-retry utility penalty α (≥ 0 enables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	if (*samples > 0) == (*alpha >= 0) {
		return fmt.Errorf("pass exactly one of -samples S or -retry-alpha α")
	}
	tb := report.NewTable("quantity", "basic model", "with extension")
	if *samples > 0 {
		sp, err := m.Sampling(*samples)
		if err != nil {
			return err
		}
		gBasic, err := m.BandwidthGap(*capacity)
		if err != nil {
			return err
		}
		gExt, err := sp.BandwidthGap(*capacity)
		if err != nil {
			return err
		}
		tb.AddRow("B(C)", m.BestEffort(*capacity), sp.BestEffort(*capacity))
		tb.AddRow("R(C)", m.Reservation(*capacity), sp.Reservation(*capacity))
		tb.AddRow("performance gap δ(C)", m.PerformanceGap(*capacity), sp.PerformanceGap(*capacity))
		tb.AddRow("bandwidth gap Δ(C)", gBasic, gExt)
		if err := tb.Render(os.Stdout); err != nil {
			return err
		}
		_, err = fmt.Printf("\nsampling S = %d (§5.1): flows judged by their worst sampled moment\n", *samples)
		return err
	}
	rt, err := m.Retry(*alpha)
	if err != nil {
		return err
	}
	rExt, err := rt.Reservation(*capacity)
	if err != nil {
		return err
	}
	dExt, err := rt.PerformanceGap(*capacity)
	if err != nil {
		return err
	}
	gBasic, err := m.BandwidthGap(*capacity)
	if err != nil {
		return err
	}
	gExt, err := rt.BandwidthGap(*capacity)
	if err != nil {
		return err
	}
	eq, err := rt.Equilibrium(*capacity)
	if err != nil {
		return err
	}
	tb.AddRow("R(C)", m.Reservation(*capacity), rExt)
	tb.AddRow("performance gap δ(C)", m.PerformanceGap(*capacity), dExt)
	tb.AddRow("bandwidth gap Δ(C)", gBasic, gExt)
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	_, err = fmt.Printf("\nretrying α = %g (§5.2): inflated load L̂ = %.2f, blocking θ = %.4f, retries/flow D = %.4f\n",
		*alpha, eq.EffectiveMean, eq.Blocking, eq.Retries)
	return err
}
