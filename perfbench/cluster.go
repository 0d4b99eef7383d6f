package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"beqos/internal/cluster"
	"beqos/internal/obs"
	"beqos/internal/resv"
)

// clusterTopology is the smallest topology that runs the router, the hop
// coalescer, forwarding and rollback: an entry node owning no link and two
// owner nodes, one pair with two candidate 2-hop paths. Each path's second
// hop is tighter than its first, so a path denied there rolls back the
// first hop it already claimed.
const clusterTopology = `node entry
node a
node b
link a1 a %d
link b1 b %d
link b2 b %d
link a2 a %d
path via-a a1,b2
path via-b b1,a2
pair x entry b via-a,via-b
`

// Cluster workload parameters. The callers' churn holds about 2·10^4 path
// flows at the entry node; the pooled second-hop bound sits 3% below the
// offered load, so a few percent of path admissions deny.
const (
	clKbar      = 10000 // offered load per caller
	clFlows     = 1 << 17
	clFirstHop  = 14000
	clSecondHop = 9700
	clBody      = 16 // ops per batch body
	clTTL       = 3 * time.Second
	// clWarmup is the arrivals per caller run during set-up, three mean
	// holds of the offered load, after which the held population is
	// stationary.
	clWarmup = 3 * clKbar
	// clIdle is the quiet interval of the idle-CPU probe: long enough for
	// every held flow to pass its TTL and be swept.
	clIdle = clTTL + clTTL/4 + 250*time.Millisecond
)

// clusterID is the flow sequence scheme of the cluster workload: 48 bits,
// the caller on top, then the schedule period and the flow's index, which
// stays below 2^20 (a period draws about clFlows = 2^17 flows).
func clusterID(w int) func(period, flow uint32) uint64 {
	return func(period, flow uint32) uint64 {
		return cluster.FlowID(0, uint64(w)<<47|uint64(period)<<20|uint64(flow))
	}
}

type clCaller struct {
	mc     *resv.MuxClient
	churn  *churn
	ops    []churnOp
	frames []resv.Frame
	tally
}

type clInst struct {
	cl       *cluster.Cluster
	topo     *cluster.Topology
	entry    *cluster.Node
	callers  []*clCaller
	handlers sync.WaitGroup
}

func buildCluster(seed uint64) (*clInst, error) {
	topo, err := cluster.ParseTopology(fmt.Sprintf(clusterTopology, clFirstHop, clFirstHop, clSecondHop, clSecondHop))
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{Topology: topo, TTL: clTTL})
	if err != nil {
		return nil, err
	}
	in := &clInst{cl: cl, topo: topo, entry: cl.Node(topo.NodeIndex("entry"))}
	for w := 0; w < callers; w++ {
		s1, s2 := seedPair(seed, w)
		ch, err := newChurn(clKbar, clFlows, s1, s2, clusterID(w))
		if err != nil {
			return nil, err
		}
		in.callers = append(in.callers, &clCaller{churn: ch})
	}
	cl.Start()
	for _, c := range in.callers {
		a, b := net.Pipe()
		in.handlers.Add(1)
		go func() {
			defer in.handlers.Done()
			in.entry.HandleClientConn(b)
		}()
		c.mc = resv.NewMuxClient(a)
	}
	warm(func(w int) {
		for arrivals := 0; arrivals < clWarmup; {
			in.call(w, nil)
			for _, op := range in.callers[w].ops {
				if !op.teardown {
					arrivals++
				}
			}
		}
	})
	return in, nil
}

// call sends one batch body of caller w's churn and returns its ops.
func (in *clInst) call(w int, log *frameLog) int {
	c := in.callers[w]
	c.ops = c.churn.next(c.ops[:0], clBody)
	c.frames = c.frames[:0]
	for _, op := range c.ops {
		c.frames = append(c.frames, op.frame())
	}
	v, _, err := c.mc.ReserveBatch(context.Background(), c.frames)
	if err != nil {
		c.fail(len(c.ops), "batch: %v", err)
		return len(c.ops)
	}
	for i, op := range c.ops {
		kind := resv.MsgDeny
		switch {
		case op.teardown && v.Granted(i):
			kind = resv.MsgTeardownOK
		case op.teardown:
			kind = resv.MsgError
		case v.Granted(i):
			kind = resv.MsgGrant
		}
		c.settle(c.churn, op, resv.Frame{Type: kind, FlowID: op.id})
	}
	for g := range in.topo.Links {
		if a := in.cl.Node(in.topo.Links[g].Owner).LinkActive(g); a > int64(in.cl.Bounds()[g]) {
			c.fail(0, "link %s holds %d claims, bound %d", in.topo.Links[g].ID, a, in.cl.Bounds()[g])
		}
	}
	if log != nil {
		log.add(w, c.frames, v.Granted)
	}
	return len(c.ops)
}

// held reports the claims the owner nodes hold, summed over all links.
func (in *clInst) held() int64 {
	var n int64
	for g := range in.topo.Links {
		n += in.cl.Node(in.topo.Links[g].Owner).LinkActive(g)
	}
	return n
}

// tearDown releases every flow the callers hold, in bodies.
func (in *clInst) tearDown() {
	for _, c := range in.callers {
		ids := c.churn.held()
		for off := 0; off < len(ids); off += clBody {
			c.frames = c.frames[:0]
			for _, id := range ids[off:min(off+clBody, len(ids))] {
				c.frames = append(c.frames, resv.Frame{Type: resv.MsgTeardown, FlowID: id})
			}
			v, _, err := c.mc.ReserveBatch(context.Background(), c.frames)
			if err != nil {
				c.fail(len(c.frames), "clean-up batch: %v", err)
				continue
			}
			c.teardowns += uint64(v.Count())
			if v.Count() != len(c.frames) {
				c.fail(len(c.frames)-v.Count(), "clean-up body tore down %d of %d flows", v.Count(), len(c.frames))
			}
		}
	}
}

func (in *clInst) close() {
	for _, c := range in.callers {
		_ = c.mc.Close()
	}
	in.handlers.Wait()
	in.cl.Close()
}

// nodeSum adds up one counter over every node.
func (in *clInst) nodeSum(counter func(n *cluster.Node) *obs.Counter) uint64 {
	var s uint64
	for i := 0; i < in.cl.Len(); i++ {
		s += counter(in.cl.Node(i)).Load()
	}
	return s
}

// clSnap is a reading of the cluster's instruments.
type clSnap struct {
	request, hop                                         obs.HistSnapshot
	requests, forwards, rollbacks, denies, alt, fallback uint64
	gossipOut, suppressed                                uint64
}

func (in *clInst) snap() clSnap {
	m := in.entry.Metrics()
	return clSnap{
		request:    m.RequestNS.Snapshot(),
		hop:        m.HopNS.Snapshot(),
		requests:   m.PathRequests.Load(),
		forwards:   m.Forwards.Load(),
		rollbacks:  m.Rollbacks.Load(),
		denies:     m.PathDenies.Load(),
		alt:        m.RouteAlt.Load(),
		fallback:   m.RouteFallback.Load(),
		gossipOut:  in.nodeSum(func(n *cluster.Node) *obs.Counter { return n.Metrics().GossipOut }),
		suppressed: in.nodeSum(func(n *cluster.Node) *obs.Counter { return n.Metrics().GossipSuppressed }),
	}
}

func runCluster(cfg config) (*outcome, error) {
	o := newOutcome()
	in, setup, err := setUp(cfg, func() (*clInst, error) { return buildCluster(cfg.seed) }, (*clInst).close)
	if err != nil {
		return nil, err
	}
	log := newFrameLog(cfg)
	before := in.snap()
	r := drive(cfg.duration(), func(w int) int { return in.call(w, log) }, log.hook())
	after := in.snap()
	em := in.entry.Metrics()

	// Clean-up. An untraced run tears every held flow down. A traced run
	// instead leaves them to expire during the idle-CPU probe, so the
	// probe measures the entry node's expiry sweep and the owners' claim
	// expiry over the whole held population, plus anti-entropy.
	var idle float64
	var heldAtEnd int
	expiries0 := in.nodeSum(func(n *cluster.Node) *obs.Counter { return n.Metrics().Expiries })
	if cfg.trace {
		for _, c := range in.callers {
			heldAtEnd += len(c.churn.held())
		}
		idle = idleCPU(clIdle)
		for deadline := time.Now().Add(clTTL); in.held() > 0 && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		o.check(em.Expiries.Load() == uint64(heldAtEnd), "entry node expired %d path flows, %d were held", em.Expiries.Load(), heldAtEnd)
	} else {
		in.tearDown()
		o.check(em.Expiries.Load() == 0, "entry node expired %d path flows during the run", em.Expiries.Load())
	}
	o.check(in.held() == 0, "links hold %d claims after clean-up", in.held())
	expiries := in.nodeSum(func(n *cluster.Node) *obs.Counter { return n.Metrics().Expiries }) - expiries0

	s := o.sum(func(w int) *tally { return &in.callers[w].tally })
	for _, c := range []struct {
		name         string
		server, seen uint64
	}{
		{"path grants", em.PathGrants.Load(), s.grants},
		{"path denials", em.PathDenies.Load(), s.denials},
		{"path requests", em.PathRequests.Load(), s.grants + s.denials},
		{"path teardowns", em.PathTeardowns.Load(), s.teardowns},
		{"errors", in.nodeSum(func(n *cluster.Node) *obs.Counter { return n.Metrics().Errors }), 0},
		{"forward errors", in.nodeSum(func(n *cluster.Node) *obs.Counter { return n.Metrics().ForwardErrors }), 0},
	} {
		o.check(c.server == c.seen, "cluster counted %d %s, callers %d", c.server, c.name, c.seen)
	}
	in.close()
	o.attempted, o.failed = r.all.ops, s.failed

	if !cfg.trace {
		o.setEndToEnd(r, setup)
		return o, nil
	}
	o.setRuntime(r, log.tracedUntil())
	reqs, reqNS := histDelta(before.request, after.request)
	hops, hopNS := histDelta(before.hop, after.hop)
	paths := float64(after.requests - before.requests)
	gossip := float64(after.gossipOut - before.gossipOut)
	suppressed := float64(after.suppressed - before.suppressed)
	o.layer["cluster.request_ns"] = ratio(float64(reqNS), float64(reqs))
	o.layer["cluster.hop_ns"] = ratio(float64(hopNS), float64(hops))
	o.layer["cluster.forwards_per_path"] = ratio(float64(after.forwards-before.forwards), paths)
	o.layer["cluster.rollback_ratio"] = ratio(float64(after.rollbacks-before.rollbacks), paths)
	o.layer["cluster.deny_ratio"] = ratio(float64(after.denies-before.denies), paths)
	o.layer["cluster.route_alternate_ratio"] = ratio(float64(after.alt-before.alt), paths)
	o.layer["cluster.route_fallback_ratio"] = ratio(float64(after.fallback-before.fallback), paths)
	o.layer["cluster.gossip_out_per_path"] = ratio(gossip, paths)
	o.layer["cluster.gossip_suppressed_ratio"] = ratio(suppressed, suppressed+gossip)
	o.layer["cluster.expiries"] = float64(expiries)
	o.layer["cluster.idle_cpu_ms_per_s"] = idle
	o.setResidual(&r.all.calls, float64(reqNS))
	o.replayCodec(log)
	if err := o.replayWorkload(in.callers[0].churn.text, cfg.seed); err != nil {
		return nil, err
	}
	o.replayObs()
	return o, nil
}
