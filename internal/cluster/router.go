package cluster

import "math"

// RouterMode selects how a node places a reserve request among a pair's
// candidate paths.
type RouterMode uint8

const (
	// RouteTwoChoice samples two candidate paths by hashing the flow ID
	// and places on the less loaded — balanced-allocation routing, which
	// drives path blocking exponentially below single-sample placement at
	// equal offered load. When any sampled path's load signal is stale,
	// the router degrades to the RouteHash placement for that request, per
	// the balanced-allocation analysis: acting on stale load is worse than
	// not acting on it (herding onto yesterday's shortest queue).
	RouteTwoChoice RouterMode = iota
	// RouteHash places by consistent hash of the flow ID alone — the
	// static baseline, and the stale-signal fallback.
	RouteHash
)

// String implements fmt.Stringer.
func (m RouterMode) String() string {
	if m == RouteHash {
		return "hash"
	}
	return "two-choice"
}

// splitmix64 is the final mixing function of SplitMix64 — the same mixer
// the repo's RNG substreams use — turning sequential flow IDs into
// uniformly spread placement samples.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// route picks the path for one reserve request. fallback reports that a
// two-choice placement degraded to the hash anchor because a sampled
// path's load signal was stale; alternate reports that two-choice picked
// the secondary sample over the hash anchor.
func (n *Node) route(pr *Pair, flowID uint64, now int64) (pathIdx int, fallback, alternate bool) {
	k := len(pr.Paths)
	if k == 1 {
		return pr.Paths[0], false, false
	}
	h := splitmix64(flowID)
	primary := int(h % uint64(k))
	if n.routerMode == RouteHash {
		return pr.Paths[primary], false, false
	}
	second := int((h >> 32) % uint64(k-1))
	if second >= primary {
		second++
	}
	lp, okP := n.pathLoad(pr.Paths[primary], now)
	ls, okS := n.pathLoad(pr.Paths[second], now)
	if !okP || !okS {
		return pr.Paths[primary], true, false
	}
	if ls < lp {
		return pr.Paths[second], false, true
	}
	return pr.Paths[primary], false, false
}

// pathLoad is a path's bottleneck utilization: the maximum over its links
// of active/bound. Locally-owned links read their policy directly (always
// fresh); remote links read the gossip view sharpened by this node's own
// outstanding claims on the link — a lower bound no gossip lag can stale,
// so a burst of placements from one entry node sees its own effect
// immediately instead of herding onto the last advertised empty path. A
// snapshot older than the staleness bound (or never received) still makes
// the whole path's signal untrustworthy: the own-claim count says nothing
// about other entry nodes.
func (n *Node) pathLoad(pathIdx int, now int64) (load float64, fresh bool) {
	p := &n.topo.Paths[pathIdx]
	for _, g := range p.Links {
		var active int64
		if ls := n.byGlobal[g]; ls != nil {
			active = ls.Policy().Active()
		} else {
			var updated int64
			active, updated = n.view.load(g)
			if updated == 0 || (n.staleNanos > 0 && now-updated > n.staleNanos) {
				return 0, false
			}
			if own := n.own[g].Load(); own > active {
				active = own
			}
		}
		if u := float64(active) / float64(n.bounds[g]); u > load {
			load = u
		}
	}
	return load, true
}

// pathShareFloor is the worst-case share a grant on this path guarantees:
// the minimum over links of capacity/bound — each link's counting-policy
// grant value — so the path promise is as strong as its tightest link.
func (n *Node) pathShareFloor(p *Path) float64 {
	share := math.MaxFloat64
	for _, g := range p.Links {
		if s := n.topo.Links[g].Capacity / float64(n.bounds[g]); s < share {
			share = s
		}
	}
	return share
}
