package cluster

import (
	"fmt"
	"net"
	"time"

	"beqos/internal/utility"
)

// Config describes a cluster to assemble over a parsed topology.
type Config struct {
	// Topology is the parsed cluster description. Required.
	Topology *Topology
	// Util is the utility function every link's admission bound is derived
	// from (kmax(C) per link capacity). Defaults to the adaptive utility.
	Util utility.Function
	// TTL is the soft-state lifetime of a path reservation; 0 disables
	// expiry (reservations live until torn down or their connection drops).
	TTL time.Duration
	// Router selects the placement strategy. Defaults to RouteTwoChoice.
	Router RouterMode
	// AntiEntropy is the periodic gossip interval. Defaults to 25ms;
	// negative disables the tick, leaving only the gossip an owner
	// piggybacks on hops it forwards. A gossiped load signal older than 8
	// intervals (8 default intervals with the tick off) is stale:
	// two-choice then falls back to hashed placement. Every 4th tick
	// re-sends every link, so a quiet link's signal stays fresh.
	AntiEntropy time.Duration
	// Logf, if non-nil, receives one line per notable node event.
	Logf func(format string, args ...interface{})
}

// DefaultAntiEntropy is the default gossip interval.
const DefaultAntiEntropy = 25 * time.Millisecond

// staleTicks is the staleness bound on a gossiped load signal, in
// anti-entropy intervals. sweepTicks is how often, in ticks, anti-entropy
// re-sends every link whether or not it moved: half the bound, so a quiet
// link's snapshot never ages past it.
const (
	staleTicks = 8
	sweepTicks = staleTicks / 2
)

// Cluster is an assembled set of nodes sharing a topology, with the peer
// plane wired over in-process pipes. Use New + Start for tests, benchmarks
// and the in-process `beqos cluster` mode; production-shaped deployments
// wire nodes over TCP themselves with Node.HandlePeerConn/connect helpers.
type Cluster struct {
	topo   *Topology
	bounds []int
	nodes  []*Node
	ae     time.Duration
}

// Bounds returns the per-link admission bounds (indexed like
// Topology.Links) the cluster derived from its utility function.
func (c *Cluster) Bounds() []int { return c.bounds }

// New derives every link's admission bound from the utility function and
// builds one Node per topology node. Call Start to wire the peer plane.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: config needs a topology")
	}
	util := cfg.Util
	if util == nil {
		util = utility.NewAdaptive()
	}
	topo := cfg.Topology
	bounds := make([]int, len(topo.Links))
	for i := range topo.Links {
		k, ok := utility.KMax(util, topo.Links[i].Capacity)
		if !ok {
			return nil, fmt.Errorf("cluster: utility %q has no finite kmax for link %s (capacity %g); reservations need a rigid or adaptive utility",
				util.Name(), topo.Links[i].ID, topo.Links[i].Capacity)
		}
		bounds[i] = k
	}
	ae := cfg.AntiEntropy
	if ae == 0 {
		ae = DefaultAntiEntropy
	}
	stale := staleTicks * ae
	if ae < 0 {
		ae = 0 // no periodic tick; piggybacked gossip only
		stale = staleTicks * DefaultAntiEntropy
	}
	c := &Cluster{topo: topo, bounds: bounds, nodes: make([]*Node, len(topo.Nodes)), ae: ae}
	for i := range topo.Nodes {
		n, err := newNode(i, topo, bounds, cfg.TTL, cfg.Router, stale)
		if err != nil {
			return nil, err
		}
		n.Logf = cfg.Logf
		c.nodes[i] = n
	}
	return c, nil
}

// Start wires the peer plane — one in-process pipe per ordered node pair,
// resv.Client on the initiator end, peer-plane server on the other — and
// launches every node's background loops. Nodes listed in skip are left
// unwired and dormant; bring them in later with Join (late-join tests).
func (c *Cluster) Start(skip ...int) {
	skipped := make(map[int]bool, len(skip))
	for _, i := range skip {
		skipped[i] = true
	}
	for i, ni := range c.nodes {
		if skipped[i] {
			continue
		}
		for j, nj := range c.nodes {
			if i == j || skipped[j] {
				continue
			}
			a, b := net.Pipe()
			ni.connectPeer(j, a)
			go nj.HandlePeerConn(b)
		}
	}
	for i, n := range c.nodes {
		if !skipped[i] {
			n.start(c.ae)
		}
	}
}

// Join wires one additional node into a running cluster (a late joiner for
// convergence tests): pipes in both directions between it and every node
// already serving, then its background loops.
func (c *Cluster) Join(i int) {
	ni := c.nodes[i]
	for j, nj := range c.nodes {
		if i == j {
			continue
		}
		a, b := net.Pipe()
		ni.connectPeer(j, a)
		go nj.HandlePeerConn(b)
		a, b = net.Pipe()
		nj.connectPeer(i, a)
		go ni.HandlePeerConn(b)
	}
	ni.start(c.ae)
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Kill stops node i abruptly: its connections drop, so peers release every
// claim its entry plane held on them immediately, and claims on the dead
// node's own links become unreachable (their clients' TTLs expire them from
// the client side; the dead node's state is gone with it).
func (c *Cluster) Kill(i int) { c.nodes[i].Close() }

// Close stops every node.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}
