package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"time"

	"beqos/internal/cluster"
	"beqos/internal/obs/obshttp"
)

// cmdCluster runs an N-node admission cluster in one process: every node
// owns its topology links, serves the resv wire protocol to clients on its
// own listener, places path reservations with two-choice routing, and
// forwards remote hops to the owning node over the in-process peer plane.
// Stock clients (`beqos load -addr`, `beqos reserve -addr`) can point at
// any node's listener; their flow IDs address pair 0.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	topoFile := fs.String("topology", "", "topology spec file (node/link/path/pair lines; overrides -nodes)")
	nodes := fs.Int("nodes", 4, "generate a ring topology with this many nodes (when -topology is empty)")
	capacity := fs.Float64("capacity", 32, "per-link capacity of the generated ring")
	alt := fs.Bool("alt", true, "give each generated pair an alternate two-hop path (exercises two-choice)")
	utilName := fs.String("util", "adaptive", "utility function deriving each link's kmax: rigid, adaptive")
	ttl := fs.Duration("ttl", 0, "soft-state TTL: unrefreshed path reservations expire on every hop (0 = never)")
	routerName := fs.String("router", "two-choice", "path placement: two-choice (balanced allocation), hash (consistent hash)")
	antiEntropy := fs.Duration("anti-entropy", cluster.DefaultAntiEntropy, "periodic gossip interval; a load signal 8 intervals old is stale (negative = only the gossip an owner piggybacks on hops it forwards)")
	listen := fs.String("listen", "127.0.0.1:4750", "client-plane base address; node i listens on port+i")
	debugAddr := fs.String("debug-addr", "", "per-node /metrics, /healthz, /debug/pprof base address, port+i per node (empty = off)")
	printOnly := fs.Bool("print", false, "validate and describe the topology, then exit without serving")
	quiet := fs.Bool("quiet", false, "suppress per-event logging")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := cluster.Ring(*nodes, *capacity, *alt)
	if *topoFile != "" {
		raw, err := os.ReadFile(*topoFile)
		if err != nil {
			return err
		}
		spec = string(raw)
	}
	topo, err := cluster.ParseTopology(spec)
	if err != nil {
		return err
	}
	util, err := parseUtility(*utilName)
	if err != nil {
		return err
	}
	var router cluster.RouterMode
	switch *routerName {
	case "two-choice":
		router = cluster.RouteTwoChoice
	case "hash":
		router = cluster.RouteHash
	default:
		return fmt.Errorf("unknown -router %q (want two-choice or hash)", *routerName)
	}

	cfg := cluster.Config{
		Topology:    topo,
		Util:        util,
		TTL:         *ttl,
		Router:      router,
		AntiEntropy: *antiEntropy,
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...interface{}) {
			fmt.Printf(format+"\n", a...)
		}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()

	fmt.Printf("beqos: cluster of %d nodes, %d links, %d pairs (router %s, util %s)\n",
		len(topo.Nodes), len(topo.Links), len(topo.Pairs), router, util.Name())
	for gi := range topo.Links {
		l := &topo.Links[gi]
		fmt.Printf("  link %-12s owner %-8s capacity %-8g kmax %d\n",
			l.ID, topo.Nodes[l.Owner], l.Capacity, cl.Bounds()[gi])
	}
	for pi := range topo.Pairs {
		pr := &topo.Pairs[pi]
		fmt.Printf("  pair %-12s %s -> %-8s %d candidate path(s)\n",
			pr.ID, topo.Nodes[pr.Src], topo.Nodes[pr.Dst], len(pr.Paths))
	}
	if *printOnly {
		return nil
	}

	cl.Start()
	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	lns := make([]net.Listener, 0, cl.Len())
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	for i := 0; i < cl.Len(); i++ {
		addr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("node %s listener: %w", topo.Nodes[i], err)
		}
		lns = append(lns, ln)
		go func(n *cluster.Node, ln net.Listener) { _ = n.ServeClients(ln) }(cl.Node(i), ln)
		fmt.Printf("beqos: node %-8s serving clients on tcp %s\n", topo.Nodes[i], ln.Addr())
	}
	if *debugAddr != "" {
		dhost, dportStr, err := net.SplitHostPort(*debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dport, err := strconv.Atoi(dportStr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		for i := 0; i < cl.Len(); i++ {
			dln, err := net.Listen("tcp", net.JoinHostPort(dhost, strconv.Itoa(dport+i)))
			if err != nil {
				return fmt.Errorf("node %s debug listener: %w", topo.Nodes[i], err)
			}
			lns = append(lns, dln)
			go func(n *cluster.Node, dln net.Listener) {
				_ = http.Serve(dln, obshttp.DebugMux(n.Registry()))
			}(cl.Node(i), dln)
			fmt.Printf("beqos: node %-8s observability on http://%s (/metrics, /healthz, /debug/pprof/)\n",
				topo.Nodes[i], dln.Addr())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Println("beqos: cluster shutting down")
	// Give in-flight placements a beat to finish before the teardown.
	time.Sleep(50 * time.Millisecond)
	return nil
}
