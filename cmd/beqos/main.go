// Command beqos is the command-line interface to the best-effort versus
// reservations model (Breslau & Shenker, SIGCOMM 1998).
//
// Usage:
//
//	beqos eval    -load poisson -mean 100 -util rigid -capacity 200
//	beqos sweep   -load algebraic -z 3 -util adaptive -cmin 50 -cmax 1000 -step 50
//	beqos welfare -load exponential -util rigid -price 0.01
//	beqos gamma   -load algebraic -util rigid -pmin 0.001 -pmax 0.5
//	beqos fixedload -capacity 100 -util adaptive
//	beqos sim     -capacity 120 -rate 10 -hold 10 -reserve
//	beqos serve   -addr :4742 -capacity 8 -transport all -debug-addr :4743
//	beqos reserve -addr localhost:4742 -flows 12
//	beqos load    -capacity 100 -util adaptive -mean 100 -probe-ttl 250ms
//	beqos load    -capacity 100 -util adaptive -mean 100 -transport udp -udp-loss 10
//	beqos serve   -addr :4742 -capacity 8 -policy tiered -tier-standard 6
//	beqos sweep-policy -policy tiered -mode live -k1 1,0.75,0.5
//	beqos sweep-policy -policy token-bucket -k1 2,6,12 -k2 4,8
//	beqos cluster -nodes 4 -capacity 32 -router two-choice -listen 127.0.0.1:4750
//	beqos workload specs
//	beqos sim     -capacity 120 -util adaptive -reserve -workload specs/flashcrowd.spec
//	beqos load    -capacity 100 -util adaptive -workload specs/baseline.spec
//
// Every subcommand prints -h help. Loads: poisson, exponential, algebraic
// (with -z). Utilities: rigid, adaptive, elastic.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "eval":
		err = cmdEval(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "welfare":
		err = cmdWelfare(os.Args[2:])
	case "gamma":
		err = cmdGamma(os.Args[2:])
	case "fixedload":
		err = cmdFixedLoad(os.Args[2:])
	case "plot":
		err = cmdPlot(os.Args[2:])
	case "extension":
		err = cmdExtension(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "reserve":
		err = cmdReserve(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "sweep-policy":
		err = cmdSweepPolicy(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "beqos: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "beqos: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `beqos — best-effort versus reservations (SIGCOMM 1998)

Commands:
  eval      compute B(C), R(C), δ(C), Δ(C) and kmax at one capacity
  sweep     tabulate the same quantities over a capacity range
  welfare   provisioning and the equalizing price ratio γ(p) at a price
  gamma     sweep γ(p) over a log-spaced price range
  fixedload analyze the §2 fixed-load model V(k) = k·π(C/k)
  plot      render B/R or Δ curves as an ASCII chart
  extension evaluate the §5 sampling or retrying extension at a capacity
  sim       run the flow-level simulator on one link
  serve     run a reservation admission-control server (-transport tcp,
            udp, or all; -debug-addr serves /metrics, /healthz, /debug/pprof)
  reserve   request reservations from a running server
  load      drive an admission server with Poisson load and cross-validate
            the measured blocking and utility against the analytical model
            (-transport classic or udp; -udp-loss injects packet loss)
  sweep-policy
            grid-search an admission policy's knobs over the simulator or
            the live load harness, cross-validating each cell against the
            model where a closed form exists (-quick is a CI smoke)
  cluster   run an N-node path-admission cluster in one process: per-node
            client listeners, two-choice or hashed path placement, gossiped
            link occupancy (-topology spec file or a generated -nodes ring)
  workload  validate a corpus of declarative scenario spec files and
            summarize each (sim and load consume them via -workload)

Run 'beqos <command> -h' for flags.
`)
}
