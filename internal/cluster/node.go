package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beqos/internal/obs"
	"beqos/internal/resv"
)

// Node is one member of a beqos cluster: it owns the admission policies of
// its links, serves the resv wire protocol on two planes — a client plane
// (path reservations, FlowID = pairIdx<<48 | seq) and a peer plane (link
// hops from other nodes, FlowID = linkIdx<<48 | hopKey) — and gossips its
// links' occupancy so every other node can route against it.
//
// The hot paths are allocation-free at steady state: a local admission is
// a policy CAS plus a claim-table insert, and a forwarded hop is flushed
// by its waiting caller over the peer's shared resv.Client: recycled
// calls, writes coalesced.
type Node struct {
	idx  int
	name string
	topo *Topology
	lc   *resv.Lifecycle // clock, loops, inbound connections: as a resv.Server's

	ttl        time.Duration
	staleNanos int64 // the staleness bound on a gossiped load signal
	routerMode RouterMode

	// links are the locally-owned links; byGlobal maps a global link index
	// to its local state (nil for links other nodes own). bounds holds
	// every link's admission bound — local and remote — since topology and
	// utility are cluster-wide knowledge; kmaxSum is their sum, the
	// cluster-wide Stats threshold.
	links    []*linkState
	byGlobal []*linkState
	bounds   []int
	kmaxSum  int

	// peers[j] is the outbound transport to node j (nil for self, and
	// until the cluster wires it — late-joining nodes appear when their
	// pointer lands).
	peers []atomic.Pointer[peer]
	view  *view
	// own[g] counts the claims THIS node's entry plane currently holds on
	// remote link g. It is a lower bound on g's true occupancy that no
	// gossip lag can stale, so the router folds it into the load estimate —
	// without it, a burst of placements from one entry node herds onto
	// whichever path the last gossip round said was empty.
	own []atomic.Int64

	// hopSeq mints hop keys: idx<<40 | seq identifies one path admission
	// on every link it claims, unique across concurrently-placing entry
	// nodes. gossipSeq versions this node's occupancy snapshots.
	hopSeq    atomic.Uint64
	gossipSeq atomic.Uint64

	// cconns are the open client connections and Local handles, each with
	// its own path-flow wheel. expConns/expFlows are the expiry step's
	// scratch, owned by whichever goroutine runs it (the expiry loop).
	cmu      sync.Mutex
	cconns   map[*cconn]struct{}
	expConns []*cconn
	expFlows []pathFlow

	reg     *obs.Registry
	metrics *nodeMetrics

	// Logf, if non-nil, receives one line per notable event (rollbacks,
	// forward errors, expiries). Set before serving.
	Logf func(format string, args ...interface{})
}

// peer is the outbound state toward one other node: the stream client hops
// ride, the coalescer that batches them into multi-reserve frames, and the
// piggyback dedup — the last active count gossiped per local link, so
// forwarding traffic re-advertises a link only when its occupancy actually
// moved.
type peer struct {
	mc       *resv.Client
	co       *coalescer
	lastSent []atomic.Int64
}

// pathFlow is one path reservation at its entry node: the Val of its hold
// in its connection's cell, keyed by its client-facing FlowID
// (pairIdx<<48 | seq).
type pathFlow struct {
	hopKey uint64 // the 48-bit key claimed on every link of the path
	path   int32  // topology path index
	// pending marks an admission still claiming its hops; only the
	// admitting goroutine may touch a pending flow, and its timer is armed
	// only once granted.
	pending bool
}

// cconn is one client connection's (or Local handle's) path flows, in a
// cell with no policy, and the connection's resv.Handler on the client
// plane.
type cconn struct {
	n     *Node
	flows resv.Cell[pathFlow]
	// closed is set, under flows' lock, once the connection has dropped.
	closed bool
}

// openCConn makes a path-flow cell and registers it for expiry; close it
// with rollbackConn.
func (n *Node) openCConn() *cconn {
	c := &cconn{n: n}
	c.flows.Init(0, nil, n.ttl, n.lc.Now())
	n.cmu.Lock()
	n.cconns[c] = struct{}{}
	n.cmu.Unlock()
	return c
}

// nodeMetrics is a node's instrument set (registered as cluster_*).
type nodeMetrics struct {
	PathRequests  *obs.Counter
	PathGrants    *obs.Counter
	PathDenies    *obs.Counter
	PathTeardowns *obs.Counter
	Rollbacks     *obs.Counter
	Forwards      *obs.Counter
	ForwardErrors *obs.Counter
	GossipIn      *obs.Counter
	GossipOut     *obs.Counter
	// GossipSuppressed counts anti-entropy snapshots skipped because the
	// peer already holds the link's current occupancy — delta suppression.
	GossipSuppressed *obs.Counter
	Expiries         *obs.Counter
	RouteFallback    *obs.Counter
	RouteAlt         *obs.Counter
	Errors           *obs.Counter
	HopNS            *obs.Histogram
	RequestNS        *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		PathRequests:     reg.Counter("cluster_path_requests_total", "path reservation requests handled at this entry node"),
		PathGrants:       reg.Counter("cluster_path_grants_total", "path reservations granted end to end"),
		PathDenies:       reg.Counter("cluster_path_denies_total", "path reservations denied by some link"),
		PathTeardowns:    reg.Counter("cluster_path_teardowns_total", "path reservations torn down by their client"),
		Rollbacks:        reg.Counter("cluster_rollbacks_total", "denied paths whose upstream claims were rolled back"),
		Forwards:         reg.Counter("cluster_forwards_total", "link hops forwarded to peer nodes"),
		ForwardErrors:    reg.Counter("cluster_forward_errors_total", "forwarded hops failed by transport errors (unreachable peers)"),
		GossipIn:         reg.Counter("cluster_gossip_in_total", "occupancy snapshots received"),
		GossipOut:        reg.Counter("cluster_gossip_out_total", "occupancy snapshots sent (piggybacked + anti-entropy)"),
		GossipSuppressed: reg.Counter("cluster_gossip_suppressed_total", "anti-entropy snapshots suppressed (peer already current)"),
		Expiries:         reg.Counter("cluster_expiries_total", "claims and path flows expired by the TTL backstop"),
		RouteFallback:    reg.Counter("cluster_route_fallback_total", "two-choice placements degraded to consistent hash on stale load signals"),
		RouteAlt:         reg.Counter("cluster_route_alternate_total", "two-choice placements that picked the less-loaded alternate over the hash anchor"),
		Errors:           reg.Counter("cluster_errors_total", "protocol errors answered"),
		HopNS:            reg.Histogram("cluster_hop_ns", "per-hop forward round-trip latency, nanoseconds"),
		RequestNS:        reg.Histogram("cluster_request_ns", "per-request service latency, nanoseconds (batch-amortized)"),
	}
}

// newNode builds a node over the shared topology. bounds must hold every
// link's admission bound (the cluster computes them once from the utility
// function).
func newNode(idx int, topo *Topology, bounds []int, ttl time.Duration, router RouterMode, stale time.Duration) (*Node, error) {
	n := &Node{
		idx:        idx,
		name:       topo.Nodes[idx],
		topo:       topo,
		lc:         resv.NewLifecycle(),
		ttl:        ttl,
		staleNanos: int64(stale),
		routerMode: router,
		byGlobal:   make([]*linkState, len(topo.Links)),
		bounds:     bounds,
		peers:      make([]atomic.Pointer[peer], len(topo.Nodes)),
		view:       newView(len(topo.Links)),
		own:        make([]atomic.Int64, len(topo.Links)),
		cconns:     make(map[*cconn]struct{}),
		reg:        obs.New(),
	}
	start := n.lc.Now()
	for gi := range topo.Links {
		l := &topo.Links[gi]
		if l.Owner != idx {
			continue
		}
		ls, err := newLinkState(len(n.links), *l, bounds[gi], ttl, start)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s link %s: %w", n.name, l.ID, err)
		}
		n.links = append(n.links, ls)
		n.byGlobal[gi] = ls
		n.kmaxSum = 0 // recomputed below over all links
	}
	for _, b := range bounds {
		n.kmaxSum += b
	}
	n.metrics = newNodeMetrics(n.reg)
	n.reg.GaugeFunc("cluster_node_index", "this node's index in the topology", func() float64 { return float64(idx) })
	n.reg.GaugeFunc("cluster_active_total", "cluster-wide active path claims as this node sees them", func() float64 {
		return float64(n.activeSum())
	})
	for _, ls := range n.links {
		ls := ls
		id := metricName(ls.link.ID)
		n.reg.GaugeFunc("cluster_link_active_"+id, "live claims on link "+ls.link.ID, func() float64 {
			return float64(ls.Policy().Active())
		})
		n.reg.GaugeFunc("cluster_link_bound_"+id, "admission bound kmax of link "+ls.link.ID, func() float64 {
			return float64(ls.Policy().Bound())
		})
	}
	return n, nil
}

// metricName makes a link ID safe as a metric-name suffix.
func metricName(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// Name returns the node's topology name.
func (n *Node) Name() string { return n.name }

// Registry returns the node's metrics registry, for /metrics mounting.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Metrics returns the node's instrument set.
func (n *Node) Metrics() *nodeMetrics { return n.metrics }

// LinkActive returns the live claim count of a locally-owned link, or -1
// when the link is owned elsewhere.
func (n *Node) LinkActive(global int) int64 {
	if global < 0 || global >= len(n.byGlobal) || n.byGlobal[global] == nil {
		return -1
	}
	return n.byGlobal[global].Policy().Active()
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.Logf != nil {
		n.Logf(format, args...)
	}
}

// connectPeer installs the outbound transport to node j over an
// established connection (the other end must be served by j's
// HandlePeerConn). Safe to call while the node is serving — late joins
// become routable the moment the pointer lands.
func (n *Node) connectPeer(j int, nc net.Conn) {
	p := &peer{mc: resv.NewClient(nc), lastSent: make([]atomic.Int64, len(n.links))}
	for i := range p.lastSent {
		p.lastSent[i].Store(-1)
	}
	p.co = newCoalescer(n, p.mc)
	n.peers[j].Store(p)
}

// start launches the node's background loops: the anti-entropy gossip
// tick, every sweepTicks-th of which is a full sweep, and, with a TTL, the
// expiry step at the wheels' resolution.
func (n *Node) start(antiEntropy time.Duration) {
	if antiEntropy > 0 {
		ticks := 0
		n.lc.Every(antiEntropy, func(int64) {
			ticks++
			n.gossipAll(ticks%sweepTicks == 0)
		})
	}
	if n.ttl > 0 {
		n.lc.Every(resv.WheelRes(n.ttl), n.expire)
	}
}

// Close stops the node: its outbound peer transports, so a hop flush in
// flight fails and so does every hop queued behind it or after, then its
// lifecycle — the loops, and the inbound connections, whose releases it
// waits for. Claims its outbound flows held on other nodes are released
// by their connection drops; claims held on this node die with the
// process (or, for tests, with the link cells).
func (n *Node) Close() {
	for j := range n.peers {
		if p := n.peers[j].Load(); p != nil {
			_ = p.mc.Close()
		}
	}
	n.lc.Close()
}

// gossipAll advertises local links to every peer — the anti-entropy tick.
// A link whose occupancy a peer already holds is suppressed (and counted),
// so a quiet cluster's anti-entropy traffic falls to one frame per link
// and sweep, while a freshly-joined peer, whose lastSent slots are all -1,
// still gets the full snapshot. A full sweep re-sends every link: a
// snapshot's age is its receive time, so a link that never moves would
// otherwise go stale at its peers and send two-choice back to the hash.
func (n *Node) gossipAll(full bool) {
	for j := range n.peers {
		p := n.peers[j].Load()
		if p == nil {
			continue
		}
		for li, ls := range n.links {
			a := ls.Policy().Active()
			if !full && p.lastSent[li].Load() == a {
				n.metrics.GossipSuppressed.Inc()
				continue
			}
			if n.postGossip(p, ls, a) {
				p.lastSent[li].Store(a)
			}
		}
	}
}

// piggyback advertises local links whose occupancy moved since the last
// snapshot this peer got — called on the forward path, right after hops to
// this peer, so a peer that hears from this node hears its load too. A
// snapshot Post drops, finding a write in progress, leaves lastSent stale
// for the next hop or tick to retry.
func (n *Node) piggyback(p *peer) {
	for li, ls := range n.links {
		a := ls.Policy().Active()
		if p.lastSent[li].Load() == a {
			continue
		}
		if n.postGossip(p, ls, a) {
			p.lastSent[li].Store(a)
		}
	}
}

func (n *Node) postGossip(p *peer, ls *linkState, active int64) bool {
	v := n.gossipSeq.Add(1)
	queued, err := p.mc.Post(resv.Frame{
		Type:   resv.MsgGossip,
		FlowID: uint64(ls.link.Index)<<idxShift | v&keyMask,
		Value:  float64(active),
	})
	if err != nil || !queued {
		// Not on the wire (closed transport or full send queue): leave
		// lastSent stale so the snapshot is retried, not forgotten.
		return false
	}
	n.metrics.GossipOut.Inc()
	return true
}

// applyGossip installs a received occupancy snapshot.
func (n *Node) applyGossip(f resv.Frame, now int64) {
	g := int(f.FlowID >> idxShift)
	if g >= len(n.topo.Links) || n.byGlobal[g] != nil {
		return // unknown link, or our own (the policy is the truth)
	}
	a := f.Value
	if math.IsNaN(a) || a < 0 || a > float64(maxGossipActive) || a != math.Trunc(a) {
		return
	}
	if n.view.apply(g, f.FlowID&keyMask, int64(a), n.own[g].Load(), now) {
		n.metrics.GossipIn.Inc()
	}
}

// maxGossipActive bounds a gossiped count to what float64 carries exactly.
const maxGossipActive = int64(1) << 53

// activeSum is the cluster-wide active claim count as this node sees it:
// its own links' policies plus the gossip view of every remote link.
func (n *Node) activeSum() int64 {
	var sum int64
	for g := range n.topo.Links {
		if ls := n.byGlobal[g]; ls != nil {
			sum += ls.Policy().Active()
		} else {
			a, _ := n.view.load(g)
			sum += a
		}
	}
	return sum
}

// expire is one expiry step at node time now. Each local link's cell
// drops its due claims; each client connection's cell gives up its due
// path flows, which are then rolled back end to end with no lock held (a
// remote hop's teardown is a round trip; a link claim whose owner expired
// it first answers unknown-flow, the release-once outcome). The work is
// proportional to what expires plus one bucket visit per link and
// connection — never a walk of a claim or flow table.
func (n *Node) expire(now int64) {
	for _, ls := range n.links {
		if m := ls.Advance(now, nil); m > 0 {
			n.metrics.Expiries.Add(uint64(m))
			n.logf("cluster %s: expired %d claims on link %s", n.name, m, ls.link.ID)
		}
	}
	n.cmu.Lock()
	n.expConns = n.expConns[:0]
	for c := range n.cconns {
		n.expConns = append(n.expConns, c)
	}
	n.cmu.Unlock()
	for _, c := range n.expConns {
		n.expFlows = n.expFlows[:0]
		c.flows.Advance(now, func(_ uint64, pf pathFlow, _ bool) {
			n.expFlows = append(n.expFlows, pf)
		})
		if len(n.expFlows) == 0 {
			continue
		}
		n.metrics.Expiries.Add(uint64(len(n.expFlows)))
		for _, pf := range n.expFlows {
			n.releaseHops(int(pf.path), pf.hopKey, len(n.topo.Paths[pf.path].Links), now)
		}
	}
}

// ---- serving ----

// ServeClients serves every client-plane connection ln accepts through
// HandleClientConn until ln closes. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown).
func (n *Node) ServeClients(ln net.Listener) error { return n.lc.Accept(ln, n.HandleClientConn) }

// HandleClientConn serves one client-plane connection: path reservations
// addressed by pair (FlowID = pairIdx<<48 | seq), stats, refreshes, and
// teardowns. Dropping the connection rolls back every path flow it holds.
func (n *Node) HandleClientConn(nc net.Conn) {
	c := n.openCConn()
	n.lc.Serve(nc, c, func(err error) {
		n.rollbackConn(c)
		n.logClosed(nc, err)
	})
}

// HandlePeerConn serves one peer-plane connection: single-link hops
// addressed by global link index (FlowID = linkIdx<<48 | hopKey) and
// gossip. Dropping the connection releases every claim it owns — a
// crashed entry node frees its downstream hops without waiting for TTL.
func (n *Node) HandlePeerConn(nc net.Conn) {
	sess := newPeerSess(n)
	n.lc.Serve(nc, sess, func(err error) {
		sess.claims.Drain(n.lc.Now(), n.linkCell)
		n.logClosed(nc, err)
	})
}

// logClosed logs the error, if any, that ended a connection's serving.
func (n *Node) logClosed(nc net.Conn, err error) {
	if err != nil {
		n.logf("cluster %s: connection %v closed: %v", n.name, nc.RemoteAddr(), err)
	}
}

// served is both planes' per-read metrics hook (resv.Handler.Served).
func (n *Node) served(frames int, elapsed time.Duration) {
	n.metrics.RequestNS.RecordN(uint64(elapsed)/uint64(frames), uint64(frames))
}

// The client plane's resv.Handler: path admissions on the connection's
// table, at the read's instant on the node clock.

func (c *cconn) Serve(f resv.Frame, now int64) resv.Frame { return c.n.dispatchClient(c, f, now) }

func (c *cconn) ServeBatch(ops []resv.Frame, now int64) resv.Frame {
	return c.n.dispatchClientBatch(c, ops, now)
}

func (c *cconn) BadBatch() { c.n.metrics.Errors.Inc() }

func (c *cconn) Served(frames int, elapsed time.Duration) { c.n.served(frames, elapsed) }

// rollbackConn unregisters a departing client connection's cell and
// releases every installed path flow it holds. Pending flows (an admission
// mid-claim on another goroutine) are left to their admitting goroutine,
// which observes closed at finalization and rolls itself back.
func (n *Node) rollbackConn(c *cconn) {
	n.cmu.Lock()
	delete(n.cconns, c)
	n.cmu.Unlock()
	now := n.lc.Now()
	c.flows.Lock()
	c.closed = true
	flows := make([]pathFlow, 0, c.flows.Len())
	c.flows.Each(func(h *resv.Hold[pathFlow]) {
		if h.Val.pending {
			return
		}
		// Dropped with its timer stopped, so an expiry step that already
		// listed this connection cannot release the flow a second time.
		flows = append(flows, h.Val)
		c.flows.Drop(now, h)
	})
	c.flows.Unlock()
	for _, pf := range flows {
		n.releaseHops(int(pf.path), pf.hopKey, len(n.topo.Paths[pf.path].Links), now)
	}
	if len(flows) > 0 {
		n.logf("cluster %s: released %d path flows from departing client", n.name, len(flows))
	}
}

// ---- client-plane dispatch ----

func (n *Node) dispatchClient(c *cconn, f resv.Frame, now int64) resv.Frame {
	switch f.Type {
	case resv.MsgRequest:
		return n.reservePath(c, f, now)
	case resv.MsgTeardown:
		return n.teardownPath(c, f, now)
	case resv.MsgRefresh:
		return n.refreshPath(c, f, now)
	case resv.MsgStats:
		return n.statsReply(f)
	default:
		// Gossip lands here too: owners gossip on the peer plane, and a
		// client's forged version could freeze the view of a link.
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
}

// reservePath admits one flow along a pair's routed path: all links or
// none. Upstream claims are rolled back the moment any hop denies or an
// owner is unreachable, so a denied path leaves no residue anywhere.
func (n *Node) reservePath(c *cconn, f resv.Frame, now int64) resv.Frame {
	pairIdx := int(f.FlowID >> idxShift)
	if pairIdx >= len(n.topo.Pairs) || !(f.Value >= 0) || math.IsInf(f.Value, 0) {
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
	n.metrics.PathRequests.Inc()
	pr := &n.topo.Pairs[pairIdx]
	pathIdx, fallback, alternate := n.route(pr, f.FlowID, now)
	if fallback {
		n.metrics.RouteFallback.Inc()
	}
	if alternate {
		n.metrics.RouteAlt.Inc()
	}

	// Install a pending placeholder first: it reserves the client flow ID
	// on this connection, and marks the hops below as owned by this
	// admission until it finalizes.
	hopKey := uint64(n.idx)<<entryShift | n.hopSeq.Add(1)&seqMask
	c.flows.Lock()
	if c.closed {
		c.flows.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
	if c.flows.Get(f.FlowID) != nil {
		c.flows.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeDuplicateFlow)}
	}
	pf := c.flows.Insert(f.FlowID, nil, 0, pathFlow{hopKey: hopKey, path: int32(pathIdx), pending: true})
	c.flows.Unlock()

	path := &n.topo.Paths[pathIdx]
	minShare := math.MaxFloat64
	var denyLoad float64
	claimed, failed := 0, false
	for _, g := range path.Links {
		hop := resv.Frame{Type: resv.MsgRequest, Class: f.Class, FlowID: uint64(g)<<idxShift | hopKey, Value: f.Value}
		if ls := n.byGlobal[g]; ls != nil {
			r, out, _ := ls.Reserve(now, hop, keyMask, nil, struct{}{})
			if out != resv.Granted {
				// A fresh hop key is never held: this is a denial.
				denyLoad, failed = r.Value, true
				break
			}
			if r.Value < minShare {
				minShare = r.Value
			}
		} else {
			p := n.peers[n.topo.Links[g].Owner].Load()
			if p == nil {
				n.metrics.ForwardErrors.Inc()
				failed = true
				break
			}
			t0 := n.lc.Now()
			op := p.co.enqueue(hop)
			if op == nil {
				n.metrics.ForwardErrors.Inc()
				failed = true
				break
			}
			op.wait()
			granted, err := op.granted, op.err
			p.co.put(op)
			n.metrics.HopNS.Record(uint64(n.lc.Now() - t0))
			n.metrics.Forwards.Inc()
			n.piggyback(p)
			if err != nil {
				n.metrics.ForwardErrors.Inc()
				n.logf("cluster %s: forward to link %s failed: %v", n.name, n.topo.Links[g].ID, err)
				failed = true
				break
			}
			if !granted {
				a, _ := n.view.load(g)
				denyLoad, failed = float64(a), true
				break
			}
			n.own[g].Add(1)
			if share := n.linkShare(g); share < minShare {
				minShare = share
			}
		}
		claimed++
	}
	if failed {
		n.releaseHops(pathIdx, hopKey, claimed, now)
		if claimed > 0 {
			n.metrics.Rollbacks.Inc()
		}
		c.flows.Lock()
		c.flows.Drop(now, pf)
		c.flows.Unlock()
		n.metrics.PathDenies.Inc()
		return resv.Frame{Type: resv.MsgDeny, FlowID: f.FlowID, Value: denyLoad}
	}
	c.flows.Lock()
	if c.closed {
		// The connection dropped while the hops were being claimed; nobody
		// else will roll this flow back.
		c.flows.Drop(now, pf)
		c.flows.Unlock()
		n.releaseHops(pathIdx, hopKey, len(path.Links), now)
		n.metrics.PathDenies.Inc()
		return resv.Frame{Type: resv.MsgDeny, FlowID: f.FlowID, Value: 0}
	}
	pf.Val.pending = false
	c.flows.Arm(now, pf)
	c.flows.Unlock()
	n.metrics.PathGrants.Inc()
	return resv.Frame{Type: resv.MsgGrant, FlowID: f.FlowID, Value: minShare}
}

// linkShare is link g's worst-case per-flow share, computed from the
// cluster-wide topology and bounds — the same C/kmax the owner's counting
// policy reports in a single-op grant, available locally so batched grants
// need no per-op share on the wire.
func (n *Node) linkShare(g int) float64 {
	return n.topo.Links[g].Capacity / float64(n.bounds[g])
}

// releaseHops releases the first upTo links of a path claimed under
// hopKey, last link first, waiting for each remote teardown.
func (n *Node) releaseHops(pathIdx int, hopKey uint64, upTo int, now int64) {
	path := &n.topo.Paths[pathIdx]
	for i := upTo - 1; i >= 0; i-- {
		if op := n.releaseHop(path.Links[i], hopKey, now); op != nil {
			op.wait()
			op.co.put(op)
		}
	}
}

// releaseHop releases link g's claim under hopKey: a local link in its
// cell, a remote link by a best-effort teardown queued on its owner's
// coalescer (an owner that already expired the claim answers
// unknown-flow, which is exactly the release-once outcome; an unreachable
// owner's TTL reaps it). The claim was granted, so a remote link's
// own-claim count comes down with it. It returns the queued teardown for
// the caller to wait on, nil for a local link or an unreachable owner.
func (n *Node) releaseHop(g int, hopKey uint64, now int64) *hopOp {
	if ls := n.byGlobal[g]; ls != nil {
		ls.Release(now, hopKey, nil)
		return nil
	}
	n.own[g].Add(-1)
	if p := n.peers[n.topo.Links[g].Owner].Load(); p != nil {
		return p.co.enqueue(resv.Frame{Type: resv.MsgTeardown, FlowID: uint64(g)<<idxShift | hopKey})
	}
	return nil
}

func (n *Node) teardownPath(c *cconn, f resv.Frame, now int64) resv.Frame {
	c.flows.Lock()
	h := c.flows.Get(f.FlowID)
	if h == nil || h.Val.pending {
		c.flows.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
	}
	pf := h.Val
	c.flows.Drop(now, h)
	c.flows.Unlock()
	n.releaseHops(int(pf.path), pf.hopKey, len(n.topo.Paths[pf.path].Links), now)
	n.metrics.PathTeardowns.Inc()
	return resv.Frame{Type: resv.MsgTeardownOK, FlowID: f.FlowID, Value: float64(n.activeSum())}
}

func (n *Node) refreshPath(c *cconn, f resv.Frame, now int64) resv.Frame {
	c.flows.Lock()
	h := c.flows.Get(f.FlowID)
	if h == nil || h.Val.pending {
		c.flows.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
	}
	c.flows.Arm(now, h)
	pf := h.Val
	c.flows.Unlock()
	links := n.topo.Paths[pf.path].Links
	for _, g := range links {
		if n.refreshHop(g, pf.hopKey, now) {
			continue
		}
		// The path no longer holds on every link, so it is rolled back.
		// Only the admission that still holds the flow releases its hops:
		// a teardown or expiry that dropped it first has released them.
		c.flows.Lock()
		h := c.flows.Get(f.FlowID)
		held := h != nil && !h.Val.pending && h.Val.hopKey == pf.hopKey
		if held {
			c.flows.Drop(now, h)
		}
		c.flows.Unlock()
		if held {
			n.releaseHops(int(pf.path), pf.hopKey, len(links), now)
		}
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
	}
	return resv.Frame{Type: resv.MsgRefreshOK, FlowID: f.FlowID, Value: n.ttl.Seconds()}
}

// refreshHop re-arms link g's claim under hopKey and reports whether it
// lives: false when its owner released or expired it, or cannot be
// reached.
func (n *Node) refreshHop(g int, hopKey uint64, now int64) bool {
	if ls := n.byGlobal[g]; ls != nil {
		return ls.Refresh(now, hopKey, nil)
	}
	p := n.peers[n.topo.Links[g].Owner].Load()
	if p == nil {
		return false
	}
	_, err := p.mc.Refresh(context.Background(), uint64(g)<<idxShift|hopKey)
	return err == nil
}

// ---- client-plane batch dispatch ----

// batchFlow is one batch op's working state: the pending path flow (nil
// for an op whose bit is already decided: an invalid op or a teardown),
// the claimed-or-enqueued prefix of its path, and the queued remote op per
// hop position (nil = local hop, claimed inline).
type batchFlow struct {
	failed   bool
	pf       *resv.Hold[pathFlow]
	hopKey   uint64
	pathIdx  int32
	nlinks   int // length of the path prefix claimed locally or enqueued remotely
	minShare float64
	ops      [MaxPathLinks]*hopOp
}

// batchScratch is the pooled working state of dispatchClientBatch, sized
// for resv.MaxBatch ops of MaxPathLinks hops each so the steady state
// allocates nothing.
type batchScratch struct {
	flows [resv.MaxBatch]batchFlow
	waves []*hopOp // remote teardowns (client ops + rollbacks) awaiting completion
	peers [(MaxNodes + 63) / 64]uint64
	// granted and minShare accumulate the reply over the body's segments.
	granted  int
	minShare float64
}

var batchScratchPool = sync.Pool{New: func() interface{} {
	return &batchScratch{waves: make([]*hopOp, 0, resv.MaxBatch*MaxPathLinks)}
}}

// dispatchClientBatch serves one client-plane MsgReserveBatch body: every
// request op routes, installs its pending flow, claims local hops inline
// and enqueues remote hops on their owners' coalescers, then waits for
// every queued op — the first wait on a peer ships that peer's queue, so N
// flows sharing a next hop cost one batched hop RPC instead of N round
// trips — and each flow finalizes all-or-nothing.
// Teardown ops release in place (body order is preserved per peer, so a
// teardown's freed slot is claimable by a later op in the same batch). The
// reply's verdict bit i reports op i; Value is the minimum granted
// worst-case share across the batch's granted flows.
//
// The body is served in segments. A segment ends before an op whose flow
// an earlier op of it left pending (a reserve then a teardown of one flow
// ID): that op is served once the ops before it have finished, so the body
// answers exactly as its ops sent singly.
//
// Per-flow atomicity is exactly the single-op path's: a flow whose hops
// partially grant — some links full, an owner unreachable, or the client
// connection dropping mid-batch — rolls back every hop it claimed before
// the reply ships, leaving no residue anywhere.
func (n *Node) dispatchClientBatch(c *cconn, ops []resv.Frame, now int64) resv.Frame {
	sc := batchScratchPool.Get().(*batchScratch)
	for i := range sc.peers {
		sc.peers[i] = 0
	}
	sc.granted, sc.minShare = 0, math.MaxFloat64
	var verdict resv.BatchVerdict
	for start := 0; start < len(ops); {
		t0 := n.lc.Now()
		end := n.claimBatch(c, ops, start, now, sc, &verdict)
		n.finishBatch(c, start, end, now, t0, sc, &verdict)
		start = end
	}

	// One piggyback pass per touched peer: gossip about this node's own
	// links follows the batch's hops to it.
	for j := range n.peers {
		if sc.peers[j>>6]&(1<<uint(j&63)) == 0 {
			continue
		}
		if p := n.peers[j].Load(); p != nil {
			n.piggyback(p)
		}
	}
	minShare := sc.minShare
	if sc.granted == 0 {
		minShare = 0
	}
	batchScratchPool.Put(sc)
	return resv.Frame{Type: resv.MsgReserveBatchReply, FlowID: uint64(verdict), Value: minShare}
}

// claimBatch is phase 1 of one segment of a client-plane batch, from op
// start on: teardowns release, requests install and fan their hop claims
// out. It returns where the segment ends: at the end of the body, or at
// the first op after start whose flow is pending.
func (n *Node) claimBatch(c *cconn, ops []resv.Frame, start int, now int64, sc *batchScratch, verdict *resv.BatchVerdict) int {
	for i := start; i < len(ops); i++ {
		f := ops[i]
		bf := &sc.flows[i]
		*bf = batchFlow{}
		switch f.Type {
		case resv.MsgTeardown:
			c.flows.Lock()
			h := c.flows.Get(f.FlowID)
			if h != nil && h.Val.pending && i > start {
				c.flows.Unlock()
				return i
			}
			if h == nil || h.Val.pending {
				c.flows.Unlock()
				n.metrics.Errors.Inc()
				continue
			}
			pf := h.Val
			c.flows.Drop(now, h)
			c.flows.Unlock()
			*verdict |= 1 << uint(i)
			n.metrics.PathTeardowns.Inc()
			for _, g := range n.topo.Paths[pf.path].Links {
				if op := n.releaseHop(g, pf.hopKey, now); op != nil {
					sc.waves = append(sc.waves, op)
					owner := n.topo.Links[g].Owner
					sc.peers[owner>>6] |= 1 << uint(owner&63)
				}
			}
		case resv.MsgRequest:
			pairIdx := int(f.FlowID >> idxShift)
			if pairIdx >= len(n.topo.Pairs) || !(f.Value >= 0) || math.IsInf(f.Value, 0) {
				n.metrics.Errors.Inc()
				continue
			}
			pathIdx, fallback, alternate := n.route(&n.topo.Pairs[pairIdx], f.FlowID, now)
			hopKey := uint64(n.idx)<<entryShift | n.hopSeq.Add(1)&seqMask
			c.flows.Lock()
			h := c.flows.Get(f.FlowID)
			if h != nil && h.Val.pending && i > start {
				c.flows.Unlock()
				return i
			}
			var pf *resv.Hold[pathFlow]
			if h == nil && !c.closed {
				pf = c.flows.Insert(f.FlowID, nil, 0, pathFlow{hopKey: hopKey, path: int32(pathIdx), pending: true})
			}
			c.flows.Unlock()
			n.metrics.PathRequests.Inc()
			if fallback {
				n.metrics.RouteFallback.Inc()
			}
			if alternate {
				n.metrics.RouteAlt.Inc()
			}
			if pf == nil {
				n.metrics.Errors.Inc()
				continue
			}
			bf.pf, bf.hopKey, bf.pathIdx = pf, hopKey, int32(pathIdx)
			bf.minShare = math.MaxFloat64
			for pos, g := range n.topo.Paths[pathIdx].Links {
				hop := resv.Frame{Type: resv.MsgRequest, Class: f.Class, FlowID: uint64(g)<<idxShift | hopKey, Value: f.Value}
				if ls := n.byGlobal[g]; ls != nil {
					r, out, _ := ls.Reserve(now, hop, keyMask, nil, struct{}{})
					if out != resv.Granted {
						bf.failed = true
						break
					}
					bf.ops[pos] = nil
					bf.nlinks = pos + 1
					if r.Value < bf.minShare {
						bf.minShare = r.Value
					}
					continue
				}
				owner := n.topo.Links[g].Owner
				var op *hopOp
				if p := n.peers[owner].Load(); p != nil {
					op = p.co.enqueue(hop)
				}
				if op == nil {
					n.metrics.ForwardErrors.Inc()
					bf.failed = true
					break
				}
				sc.peers[owner>>6] |= 1 << uint(owner&63)
				n.metrics.Forwards.Inc()
				bf.ops[pos] = op
				bf.nlinks = pos + 1
				if share := n.linkShare(g); share < bf.minShare {
					bf.minShare = share
				}
			}
		default:
			n.metrics.Errors.Inc()
		}
	}
	return len(ops)
}

// finishBatch is phases 2 and 3 of the segment of ops [start, end), whose
// phase 1 began at t0: every queued op is waited for — the first wait on
// an owner ships what phase 1 queued there — and each flow finalizes
// all-or-nothing.
func (n *Node) finishBatch(c *cconn, start, end int, now, t0 int64, sc *batchScratch, verdict *resv.BatchVerdict) {
	nremote := len(sc.waves)
	for _, op := range sc.waves {
		op.wait()
		op.co.put(op)
	}
	sc.waves = sc.waves[:0]
	for i := start; i < end; i++ {
		bf := &sc.flows[i]
		if bf.pf == nil {
			continue
		}
		for pos := 0; pos < bf.nlinks; pos++ {
			op := bf.ops[pos]
			if op == nil {
				continue
			}
			nremote++
			op.wait()
			switch {
			case op.err != nil:
				n.metrics.ForwardErrors.Inc()
				bf.failed = true
			case !op.granted:
				bf.failed = true
			default:
				n.own[n.topo.Paths[bf.pathIdx].Links[pos]].Add(1)
			}
		}
	}
	if nremote > 0 {
		elapsed := n.lc.Now() - t0
		if elapsed < 0 {
			elapsed = 0
		}
		n.metrics.HopNS.RecordN(uint64(elapsed)/uint64(nremote), uint64(nremote))
	}

	for i := start; i < end; i++ {
		bf := &sc.flows[i]
		if bf.pf == nil {
			continue
		}
		ok := !bf.failed
		if ok {
			c.flows.Lock()
			if c.closed {
				// The connection dropped while the hops were being claimed;
				// nobody else will roll this flow back.
				ok = false
			} else {
				bf.pf.Val.pending = false
				c.flows.Arm(now, bf.pf)
			}
			c.flows.Unlock()
		}
		if ok {
			*verdict |= 1 << uint(i)
			sc.granted++
			n.metrics.PathGrants.Inc()
			if bf.minShare < sc.minShare {
				sc.minShare = bf.minShare
			}
			for pos := 0; pos < bf.nlinks; pos++ {
				if op := bf.ops[pos]; op != nil {
					op.co.put(op)
				}
			}
			continue
		}
		path := &n.topo.Paths[bf.pathIdx]
		rolled := false
		for pos := bf.nlinks - 1; pos >= 0; pos-- {
			// A nil op is a local hop, claimed inline; a remote one is
			// released only if its owner granted it.
			op := bf.ops[pos]
			if op == nil || op.err == nil && op.granted {
				if top := n.releaseHop(path.Links[pos], bf.hopKey, now); top != nil {
					sc.waves = append(sc.waves, top)
				}
				rolled = true
			}
			if op != nil {
				op.co.put(op)
			}
		}
		if rolled {
			n.metrics.Rollbacks.Inc()
		}
		c.flows.Lock()
		c.flows.Drop(now, bf.pf)
		c.flows.Unlock()
		n.metrics.PathDenies.Inc()
	}
	// Rollback teardowns complete before the reply ships (or the next
	// segment starts), so a client that immediately retries sees the freed
	// slots.
	for _, op := range sc.waves {
		op.wait()
		op.co.put(op)
	}
	sc.waves = sc.waves[:0]
}

func (n *Node) statsReply(f resv.Frame) resv.Frame {
	reply, err := resv.StatsReplyFrame(n.kmaxSum, n.activeSum())
	if err != nil {
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
	return reply
}

// ---- peer-plane dispatch ----

// The peer plane's resv.Handler: link hops in this node's link cells,
// owned by the session, at the read's instant on the node clock. A reply
// is the hop's answer alone: occupancy travels the other way, posted by
// the link's owner on its own outbound peer client.

func (p *peerSess) Serve(f resv.Frame, now int64) resv.Frame { return p.n.dispatchPeer(p, f, now) }

func (p *peerSess) ServeBatch(ops []resv.Frame, now int64) resv.Frame {
	return p.n.dispatchPeerBatch(p, ops, now)
}

func (p *peerSess) BadBatch() { p.n.metrics.Errors.Inc() }

func (p *peerSess) Served(frames int, elapsed time.Duration) { p.n.served(frames, elapsed) }

func (n *Node) dispatchPeer(sess *peerSess, f resv.Frame, now int64) resv.Frame {
	switch f.Type {
	case resv.MsgRequest, resv.MsgTeardown, resv.MsgRefresh:
		c := n.hopCell(f.FlowID)
		if c == nil {
			n.metrics.Errors.Inc()
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
		}
		reply := c.Answer(now, f, keyMask, &sess.claims, struct{}{})
		// An unknown flow is no protocol error: an entry's teardown finds
		// the claim gone when the owner expired it first, the release-once
		// outcome.
		if reply.Type == resv.MsgError && reply.Value != float64(resv.ErrCodeUnknownFlow) {
			n.metrics.Errors.Inc()
		}
		return reply
	case resv.MsgStats:
		return n.statsReply(f)
	case resv.MsgGossip:
		n.applyGossip(f, now)
		return resv.Frame{}
	default:
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
}

// dispatchPeerBatch answers one batched peer-plane body on the node's link
// cells: a hop on a link the node does not own fails as an error. Runs
// break at link boundaries, each link having its own policy. Entry nodes
// compute per-link shares from cluster-wide knowledge and ignore the
// reply's Value. Errors count as dispatchPeer counts them: a teardown on a
// link this node owns fails only on an unknown flow, which is no error.
func (n *Node) dispatchPeerBatch(sess *peerSess, ops []resv.Frame, now int64) resv.Frame {
	reply, errs := resv.AnswerBatch(n.hopCell, now, ops, keyMask, &sess.claims, struct{}{})
	if errs != 0 {
		for i, f := range ops {
			if f.Type == resv.MsgTeardown && n.hopCell(f.FlowID) != nil {
				errs &^= 1 << uint(i)
			}
		}
		n.metrics.Errors.Add(uint64(errs.Count()))
	}
	return reply
}

// ---- in-process client handle ----

// Local is an in-process client-plane handle: the same dispatch the wire
// serves, minus the wire. It is the zero-copy path for co-located load
// generators and the benchmark's view of the local-admit hot path. A
// Local's flows are scoped to it like a connection's: Close rolls them
// back. Safe for concurrent use.
type Local struct {
	n *Node
	c *cconn
}

// NewLocal opens an in-process client handle on the node.
func (n *Node) NewLocal() *Local {
	return &Local{n: n, c: n.openCConn()}
}

// Reserve requests a path reservation for (pair, seq). It reports whether
// the path was granted and the granted worst-case share.
func (l *Local) Reserve(pair int, seq uint64, bandwidth float64) (granted bool, share float64, err error) {
	f := resv.Frame{Type: resv.MsgRequest, FlowID: FlowID(pair, seq), Value: bandwidth}
	r := l.n.dispatchClient(l.c, f, l.n.lc.Now())
	switch r.Type {
	case resv.MsgGrant:
		return true, r.Value, nil
	case resv.MsgDeny:
		return false, 0, nil
	default:
		return false, 0, fmt.Errorf("cluster: reserve pair %d seq %d: error code %d", pair, seq, uint64(r.Value))
	}
}

// Teardown releases (pair, seq)'s path reservation.
func (l *Local) Teardown(pair int, seq uint64) error {
	f := resv.Frame{Type: resv.MsgTeardown, FlowID: FlowID(pair, seq)}
	r := l.n.dispatchClient(l.c, f, l.n.lc.Now())
	if r.Type != resv.MsgTeardownOK {
		return fmt.Errorf("cluster: teardown pair %d seq %d: error code %d", pair, seq, uint64(r.Value))
	}
	return nil
}

// ReserveBatch requests up to resv.MaxBatch path reservations on one pair
// in a single batched dispatch: hop claims sharing a next hop coalesce
// into one peer RPC. Bit i of the verdict reports (pair, seqs[i]); share
// is the minimum granted worst-case share across the granted flows.
func (l *Local) ReserveBatch(pair int, seqs []uint64, bandwidth float64) (resv.BatchVerdict, float64, error) {
	if len(seqs) < 1 || len(seqs) > resv.MaxBatch {
		return 0, 0, fmt.Errorf("cluster: batch of %d flows (want 1..%d)", len(seqs), resv.MaxBatch)
	}
	var ops [resv.MaxBatch]resv.Frame
	for i, s := range seqs {
		ops[i] = resv.Frame{Type: resv.MsgRequest, FlowID: FlowID(pair, s), Value: bandwidth}
	}
	r := l.n.dispatchClientBatch(l.c, ops[:len(seqs)], l.n.lc.Now())
	if r.Type != resv.MsgReserveBatchReply {
		return 0, 0, fmt.Errorf("cluster: batch reserve pair %d: error code %d", pair, uint64(r.Value))
	}
	return resv.BatchVerdict(r.FlowID), r.Value, nil
}

// TeardownBatch releases up to resv.MaxBatch path reservations on one pair
// in a single batched dispatch. Bit i of the verdict reports whether
// (pair, seqs[i]) existed and was released.
func (l *Local) TeardownBatch(pair int, seqs []uint64) (resv.BatchVerdict, error) {
	if len(seqs) < 1 || len(seqs) > resv.MaxBatch {
		return 0, fmt.Errorf("cluster: batch of %d flows (want 1..%d)", len(seqs), resv.MaxBatch)
	}
	var ops [resv.MaxBatch]resv.Frame
	for i, s := range seqs {
		ops[i] = resv.Frame{Type: resv.MsgTeardown, FlowID: FlowID(pair, s)}
	}
	r := l.n.dispatchClientBatch(l.c, ops[:len(seqs)], l.n.lc.Now())
	if r.Type != resv.MsgReserveBatchReply {
		return 0, fmt.Errorf("cluster: batch teardown pair %d: error code %d", pair, uint64(r.Value))
	}
	return resv.BatchVerdict(r.FlowID), nil
}

// Refresh renews (pair, seq)'s soft state end to end.
func (l *Local) Refresh(pair int, seq uint64) error {
	f := resv.Frame{Type: resv.MsgRefresh, FlowID: FlowID(pair, seq)}
	r := l.n.dispatchClient(l.c, f, l.n.lc.Now())
	if r.Type != resv.MsgRefreshOK {
		return fmt.Errorf("cluster: refresh pair %d seq %d: error code %d", pair, seq, uint64(r.Value))
	}
	return nil
}

// Stats returns the cluster-wide admission threshold (Σ link bounds) and
// the active claim total as this node sees it.
func (l *Local) Stats() (kmax, active int64, err error) {
	r := l.n.dispatchClient(l.c, resv.Frame{Type: resv.MsgStats}, l.n.lc.Now())
	return resv.ParseStatsReply(r)
}

// Close rolls back every flow reserved through the handle.
func (l *Local) Close() {
	l.n.rollbackConn(l.c)
}
