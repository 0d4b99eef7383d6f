package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/loadgen"
	"beqos/internal/report"
	"beqos/internal/resv"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// cmdLoad runs the load harness against an admission server — in-process
// over net.Pipe by default, or a running one with -addr — and
// cross-validates the measured blocking and utility against the analytical
// model. It exits non-zero when any check falls outside the 3σ bound, so
// it doubles as an end-to-end oracle for the serving layer.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "", "attack a running server at this address instead of an in-process one")
	capacity := fs.Float64("capacity", 100, "link capacity C (must match the server when -addr is set)")
	utilName := fs.String("util", "adaptive", "utility function: rigid, adaptive")
	mean := fs.Float64("mean", 100, "offered load k̄ (arrival rate is k̄/hold)")
	hold := fs.Float64("hold", 1, "mean flow holding time, virtual time units")
	duration := fs.Float64("duration", 80, "measured horizon, virtual time units")
	warmup := fs.Float64("warmup", 0, "excluded warmup prefix (0 = 5·hold)")
	conns := fs.Int("conns", 4, "client connections")
	seed := fs.Uint64("seed", 1, "random seed (fixed seed ⇒ identical statistics)")
	dropEvery := fs.Int("drop-every", 0, "drop a connection at every n-th reserved departure (0 = off)")
	retries := fs.Int("retries", 0, "extra attempts per denied arrival via the retry path")
	probeTTL := fs.Duration("probe-ttl", 0, "also probe soft state against a TTL server (0 = skip)")
	transport := fs.String("transport", "classic", "protocol transport: classic (one stream per endpoint), udp (datagram mode with retransmission)")
	batch := fs.Int("batch", 0, "coalesce simultaneous protocol ops into multi-reserve bodies of up to n ops; a lone op stays a single frame (classic transport; 0/1 = single-frame)")
	udpLoss := fs.Int("udp-loss", 0, "drop every n-th datagram in each direction (udp transport; 0 = lossless)")
	udpTimeout := fs.Duration("udp-timeout", 0, fmt.Sprintf("datagram retransmit flight timeout (0 = %v)", loadgen.DefaultUDPTimeout))
	workloadPath := fs.String("workload", "", "drive the run from a declarative scenario spec file instead of the stationary Poisson dynamics (-mean/-hold/-duration/-warmup are ignored)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var util utility.Function
	switch *utilName {
	case "rigid":
		r, err := utility.NewRigid(1)
		if err != nil {
			return err
		}
		util = r
	case "adaptive":
		util = utility.NewAdaptive()
	default:
		return fmt.Errorf("unknown utility %q (the load harness needs admission control; elastic has none)", *utilName)
	}
	if !(*hold > 0) || !(*mean > 0) {
		return fmt.Errorf("need positive -mean and -hold")
	}

	cfg := loadgen.Config{
		Capacity:     *capacity,
		Util:         util,
		Conns:        *conns,
		Seed1:        *seed,
		Seed2:        *seed ^ 0x9e3779b97f4a7c15,
		DropEvery:    *dropEvery,
		Transport:    *transport,
		UDPLossEvery: *udpLoss,
		UDPTimeout:   *udpTimeout,
		Batch:        *batch,
	}
	var scn *workload.Scenario // the -workload spec, if any
	if *workloadPath != "" {
		s, err := loadWorkloadSpec(*workloadPath)
		if err != nil {
			return err
		}
		scn = s
		cfg.Workload = s
	} else {
		s, err := loadgen.Stationary(*mean / *hold, *hold, *duration, *warmup)
		if err != nil {
			return err
		}
		cfg.Workload = s
	}
	if *retries > 0 {
		cfg.RetryAttempts = *retries + 1
	}
	target := "in-process server"
	if *addr != "" {
		cfg.Addr = *addr
		target = "server at " + *addr
	} else {
		srv, err := resv.NewServer(*capacity, util)
		if err != nil {
			return err
		}
		cfg.Server = srv
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if scn != nil {
		fmt.Printf("beqos: load harness vs %s (capacity %g, util %s, scenario %q: %d phases over %g time units, %d conns, %s transport, seed %d)\n",
			target, *capacity, util.Name(), scn.Name, len(scn.Phases), scn.Duration(), cfg.Conns, cfg.Transport, *seed)
	} else {
		fmt.Printf("beqos: load harness vs %s (capacity %g, util %s, k̄ %g, %d conns, %s transport, seed %d)\n",
			target, *capacity, util.Name(), *mean, cfg.Conns, cfg.Transport, *seed)
	}

	res, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("flows %d  attempts %d  denied %d  grants %d  teardowns %d  retries %d  drops %d  reissued %d  peak load %d\n",
		res.Flows, res.Attempts, res.Denied, res.Grants, res.Teardowns, res.Retries, res.Drops, res.Reissued, res.PeakLoad)
	if *batch >= 2 {
		fmt.Printf("batched bodies %d carrying %d ops (batch limit %d)\n", res.Batches, res.BatchedOps, *batch)
	}
	if cfg.Transport == "udp" {
		timeout := cfg.UDPTimeout
		if timeout == 0 {
			timeout = loadgen.DefaultUDPTimeout
		}
		lossNote := "lossless"
		if *udpLoss > 0 {
			lossNote = fmt.Sprintf("loss 1/%d each way", *udpLoss)
		}
		fmt.Printf("udp retransmits %d (flight timeout %v, %s)\n", res.UDPRetransmits, timeout, lossNote)
	}
	fmt.Println()

	if scn != nil {
		pt := report.NewTable("phase", "window", "flows", "deny rate", "overload", "mean load", "utility")
		for _, ps := range res.Phases {
			pt.AddRow(ps.Name, fmt.Sprintf("[%g, %g)", ps.Start, ps.End), ps.Flows,
				fmt.Sprintf("%.4f±%.4f", ps.DenyRate, ps.DenySigma),
				fmt.Sprintf("%.4f", ps.OverloadFraction),
				fmt.Sprintf("%.1f", ps.MeanLoad),
				fmt.Sprintf("%.4f", ps.MeanUtility))
		}
		if err := pt.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	// The oracle: per-phase checks against the model wherever the scenario
	// is analytically tractable, the classic whole-run battery otherwise
	// (and additionally when the whole scenario is one stationary segment).
	var cr *loadgen.CheckReport
	if scn != nil {
		r, err := loadgen.CrossCheckWorkload(res, scn, util, *capacity)
		if err != nil {
			return err
		}
		cr = r
		if smean, ok := scn.Stationary(); ok {
			load, err := dist.NewPoisson(smean)
			if err != nil {
				return err
			}
			m, err := core.New(load, util)
			if err != nil {
				return err
			}
			classic, err := loadgen.CrossCheck(res, m, *capacity)
			if err != nil {
				return err
			}
			seen := map[string]bool{}
			for _, ck := range cr.Checks {
				seen[ck.Name] = true
			}
			for _, ck := range classic.Checks {
				if !seen[ck.Name] {
					cr.Checks = append(cr.Checks, ck)
				}
			}
		}
	} else {
		load, err := dist.NewPoisson(*mean)
		if err != nil {
			return err
		}
		m, err := core.New(load, util)
		if err != nil {
			return err
		}
		r, err := loadgen.CrossCheck(res, m, *capacity)
		if err != nil {
			return err
		}
		cr = r
	}
	tb := report.NewTable("statistic", "measured", "model", "sigma", "z", "ok")
	for _, ck := range cr.Checks {
		ok := "yes"
		if !ck.OK {
			ok = "NO"
		}
		tb.AddRow(ck.Name, ck.Measured, ck.Predicted, ck.Sigma, ck.Z, ok)
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	lat := res.Latency
	fmt.Printf("\nlatency: %d rpcs  p50 %v  p95 %v  p99 %v  max %v  (wall %v)\n",
		lat.Count, latDur(lat.Quantile(0.5)), latDur(lat.Quantile(0.95)),
		latDur(lat.Quantile(0.99)), latDur(lat.Max), res.Elapsed.Round(time.Millisecond))

	// For an in-process run the server's /metrics instruments must agree
	// with the harness's client-side tallies — the same conservation law an
	// operator would check by scraping a live server. Grants count
	// admissions only (a re-sent grant lands in resv_dup_reserves_total),
	// so the grant equality holds even under injected datagram loss;
	// denial equality does not — a denial whose reply is lost is counted
	// once per retransmitted attempt on the server, once on the client.
	if cfg.Server != nil {
		sm := cfg.Server.Metrics()
		if g := int(sm.Grants.Load()); g != res.Grants {
			return fmt.Errorf("server /metrics disagree with the harness: grants %d vs %d", g, res.Grants)
		}
		if *udpLoss > 0 {
			fmt.Printf("server /metrics agree: grants %d (dup reserves %d; denial tallies incomparable under loss: server %d, client %d)\n",
				res.Grants, sm.DupReserves.Load(), sm.Denials.Load(), res.Denied)
		} else {
			if d := int(sm.Denials.Load()); d != res.Denied {
				return fmt.Errorf("server /metrics disagree with the harness: denials %d vs %d", d, res.Denied)
			}
			fmt.Printf("server /metrics agree: grants %d, denials %d\n", res.Grants, res.Denied)
		}
	}

	if *probeTTL > 0 {
		pcfg := loadgen.ProbeConfig{Addr: *addr}
		if *addr == "" {
			psrv, err := resv.NewServerTTL(*capacity, util, *probeTTL)
			if err != nil {
				return err
			}
			defer psrv.Close()
			pcfg.Server = psrv
		}
		pr, err := loadgen.ProbeSoftState(pcfg)
		if err != nil {
			return err
		}
		status := "OK"
		if !pr.OK() {
			status = "FAILED"
		}
		fmt.Printf("soft-state probe: ttl %v  kept %d/%d  expired %d/%d  retry granted %v after %d retries  %s\n",
			pr.TTL, pr.Kept, pr.Keepers, pr.Expired, pr.Stalled, pr.RetryGranted, pr.Retries, status)
		if !pr.OK() {
			return fmt.Errorf("soft-state probe failed: %+v", pr)
		}
	}
	if !cr.AllOK() {
		return fmt.Errorf("cross-validation failed: %v", cr.Failed())
	}
	fmt.Println("\ncross-validation: all checks within 3σ of the analytical model")
	return nil
}

// latDur renders a latency histogram value (nanoseconds) as a duration.
func latDur(ns uint64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}
