// Package cluster generalizes the single-link admission plane to a
// cluster of beqos nodes owning the links of a multi-link topology, with
// flows admitted along paths (DESIGN.md §13).
//
// The design composes two results from the literature (PAPERS.md):
//
//   - Jaramillo & Ying, "Distributed Admission Control without Knowledge
//     of the Capacity Region": each link runs its own capacity-oblivious
//     admission rule (here, any internal/policy.Policy) and a path is
//     admitted iff every link on it admits — all-or-nothing, with the
//     entry node rolling back upstream claims when a downstream hop
//     denies, so the per-link no-over-admit and release-exactly-once
//     invariants hold end to end;
//   - Anagnostopoulos et al., "Steady State Analysis of Balanced-
//     Allocation Routing": reserve requests are placed with
//     power-of-two-choices between candidate paths, falling back to
//     consistent hashing when the load signals are stale.
//
// Inter-node hops reuse the resv wire protocol over flow-multiplexed
// stream connections, and per-link occupancy spreads by gossip —
// versioned monotone snapshots piggybacked on existing traffic plus a
// periodic anti-entropy tick — so any node can answer Stats and feed the
// router without a synchronous fan-out.
package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Wire packing limits. A client-facing FlowID packs the pair index in its
// top 16 bits; an inter-node hop FlowID packs the global link index there
// instead, and the low 48 bits carry a hop key whose top 8 bits name the
// entry node (so concurrent entry nodes can never mint colliding keys on
// a shared link).
const (
	idxShift = 48
	keyMask  = uint64(1)<<idxShift - 1

	entryShift = 40
	seqMask    = uint64(1)<<entryShift - 1

	// MaxNodes/MaxLinks/MaxPairs bound a topology to what the packing
	// addresses: 8 bits of entry node, 16 bits of link or pair index.
	MaxNodes = 1 << 8
	MaxLinks = 1 << 16
	MaxPairs = 1 << 16

	// MaxPathLinks bounds a path's hop count: rollback state lives in a
	// fixed array on the admission path, so it must have a compile-time
	// size. 16 hops is far beyond any plausible diameter.
	MaxPathLinks = 16
)

// FlowID packs a client-facing flow identifier: the pair the flow belongs
// to and a caller-chosen 48-bit sequence number. Pair 0 with seq ≤ 2^48-1
// is the identity, so pair-unaware clients (a stock resv.Client, the
// loadgen harness) address the first pair with their ordinary flow IDs.
func FlowID(pair int, seq uint64) uint64 {
	return uint64(pair)<<idxShift | seq&keyMask
}

// Link is one capacity-bearing resource, owned by exactly one node — the
// node that runs its admission policy and gossips its occupancy.
type Link struct {
	// ID names the link in specs, errors, and metrics.
	ID string
	// Owner is the owning node's index in Topology.Nodes.
	Owner int
	// Capacity is the link capacity C handed to the admission policy.
	Capacity float64
	// Index is the link's global index (its position in Topology.Links),
	// the value carried in hop frames and gossip.
	Index int
}

// Path is an ordered sequence of links a flow reserves across.
type Path struct {
	// ID names the path.
	ID string
	// Links are global link indices, in claim order.
	Links []int
}

// Pair is one endpoint pair with its candidate paths — the unit the
// router load-balances between.
type Pair struct {
	// ID names the pair.
	ID string
	// Src and Dst are node indices; they document the pair's endpoints
	// (the spec validator checks they exist, routing itself only uses the
	// candidate set).
	Src, Dst int
	// Paths are indices into Topology.Paths, in declaration order. The
	// first is the consistent-hash anchor when only one choice is viable.
	Paths []int
	// Index is the pair's position in Topology.Pairs — the value client
	// frames carry in their FlowID's top 16 bits.
	Index int
}

// Topology is a validated cluster description: nodes, the links they own,
// candidate paths, and endpoint pairs.
type Topology struct {
	// Nodes are the node names; a node's index is its identity everywhere
	// else (link ownership, hop keys, pair endpoints).
	Nodes []string
	Links []Link
	Paths []Path
	Pairs []Pair

	nodeIdx map[string]int
	linkIdx map[string]int
	pathIdx map[string]int
}

// NodeIndex returns the index of the named node, or -1.
func (t *Topology) NodeIndex(name string) int {
	if i, ok := t.nodeIdx[name]; ok {
		return i
	}
	return -1
}

// LinkIndex returns the global index of the named link, or -1.
func (t *Topology) LinkIndex(id string) int {
	if i, ok := t.linkIdx[id]; ok {
		return i
	}
	return -1
}

// ParseTopology parses and validates a topology spec. The format is line
// based; '#' starts a comment and blank lines are skipped:
//
//	node <name>
//	link <id> <owner-node> <capacity>
//	path <id> <link>[,<link>...]
//	pair <id> <src-node> <dst-node> <path>[,<path>...]
//
// Declaration order defines every index: the i-th link directive is
// global link i, the i-th pair directive is wire pair i. Forward
// references are errors — a link's owner, a path's links, and a pair's
// paths must already be declared — which keeps every error message
// anchored to the line that caused it.
func ParseTopology(spec string) (*Topology, error) {
	t := &Topology{
		nodeIdx: make(map[string]int),
		linkIdx: make(map[string]int),
		pathIdx: make(map[string]int),
	}
	pairIdx := make(map[string]int)
	lines := strings.Split(spec, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		lineNo := ln + 1
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "node directive wants 'node <name>', got %d fields", len(fields))
			}
			name := fields[1]
			if _, dup := t.nodeIdx[name]; dup {
				return nil, specErr(lineNo, "duplicate node %q", name)
			}
			if len(t.Nodes) >= MaxNodes {
				return nil, specErr(lineNo, "too many nodes (max %d)", MaxNodes)
			}
			t.nodeIdx[name] = len(t.Nodes)
			t.Nodes = append(t.Nodes, name)
		case "link":
			if len(fields) != 4 {
				return nil, specErr(lineNo, "link directive wants 'link <id> <owner-node> <capacity>', got %d fields", len(fields))
			}
			id := fields[1]
			if _, dup := t.linkIdx[id]; dup {
				return nil, specErr(lineNo, "duplicate link %q", id)
			}
			owner, ok := t.nodeIdx[fields[2]]
			if !ok {
				return nil, specErr(lineNo, "link %q references unknown node %q", id, fields[2])
			}
			cap, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, specErr(lineNo, "link %q: bad capacity %q: %v", id, fields[3], err)
			}
			if !(cap > 0) || math.IsInf(cap, 0) {
				return nil, specErr(lineNo, "link %q: capacity must be positive and finite, got %g", id, cap)
			}
			if len(t.Links) >= MaxLinks {
				return nil, specErr(lineNo, "too many links (max %d)", MaxLinks)
			}
			t.linkIdx[id] = len(t.Links)
			t.Links = append(t.Links, Link{ID: id, Owner: owner, Capacity: cap, Index: len(t.Links)})
		case "path":
			if len(fields) != 3 {
				return nil, specErr(lineNo, "path directive wants 'path <id> <link>[,<link>...]', got %d fields", len(fields))
			}
			id := fields[1]
			if _, dup := t.pathIdx[id]; dup {
				return nil, specErr(lineNo, "duplicate path %q", id)
			}
			var links []int
			seen := make(map[int]bool)
			for _, lid := range strings.Split(fields[2], ",") {
				if lid == "" {
					return nil, specErr(lineNo, "path %q has an empty link reference", id)
				}
				gi, ok := t.linkIdx[lid]
				if !ok {
					return nil, specErr(lineNo, "path %q traverses unknown link %q", id, lid)
				}
				if seen[gi] {
					return nil, specErr(lineNo, "path %q traverses link %q twice", id, lid)
				}
				seen[gi] = true
				links = append(links, gi)
			}
			if len(links) > MaxPathLinks {
				return nil, specErr(lineNo, "path %q has %d links (max %d)", id, len(links), MaxPathLinks)
			}
			t.pathIdx[id] = len(t.Paths)
			t.Paths = append(t.Paths, Path{ID: id, Links: links})
		case "pair":
			if len(fields) != 5 {
				return nil, specErr(lineNo, "pair directive wants 'pair <id> <src> <dst> <path>[,<path>...]', got %d fields", len(fields))
			}
			id := fields[1]
			if _, dup := pairIdx[id]; dup {
				return nil, specErr(lineNo, "duplicate pair %q", id)
			}
			src, ok := t.nodeIdx[fields[2]]
			if !ok {
				return nil, specErr(lineNo, "pair %q: unknown src node %q", id, fields[2])
			}
			dst, ok := t.nodeIdx[fields[3]]
			if !ok {
				return nil, specErr(lineNo, "pair %q: unknown dst node %q", id, fields[3])
			}
			var paths []int
			seen := make(map[int]bool)
			for _, pid := range strings.Split(fields[4], ",") {
				if pid == "" {
					return nil, specErr(lineNo, "pair %q has an empty path reference", id)
				}
				pi, ok := t.pathIdx[pid]
				if !ok {
					return nil, specErr(lineNo, "pair %q references unknown path %q", id, pid)
				}
				if seen[pi] {
					return nil, specErr(lineNo, "pair %q references path %q twice", id, pid)
				}
				seen[pi] = true
				paths = append(paths, pi)
			}
			if len(t.Pairs) >= MaxPairs {
				return nil, specErr(lineNo, "too many pairs (max %d)", MaxPairs)
			}
			pairIdx[id] = len(t.Pairs)
			t.Pairs = append(t.Pairs, Pair{ID: id, Src: src, Dst: dst, Paths: paths, Index: len(t.Pairs)})
		default:
			return nil, specErr(lineNo, "unknown directive %q (want node, link, path, or pair)", fields[0])
		}
	}
	if len(t.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: topology declares no nodes")
	}
	if len(t.Pairs) == 0 {
		return nil, fmt.Errorf("cluster: topology declares no pairs")
	}
	return t, nil
}

func specErr(line int, format string, args ...interface{}) error {
	return fmt.Errorf("cluster: topology line %d: %s", line, fmt.Sprintf(format, args...))
}

// Ring renders the spec of an n-node ring: node i owns link l<i> of the
// given capacity, and pair p<i> (src n<i>, dst n<i+1 mod n>) routes over
// l<i> — plus, when alt is true, an alternate path over the successor's
// link l<i+1 mod n>, giving the two-choice router a real choice. It is
// both the default topology of `beqos cluster -nodes N` and the scaling
// benchmark's fixture; round-tripping it through ParseTopology keeps the
// generator honest.
func Ring(n int, capacity float64, alt bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %d-node ring, capacity %g per link\n", n, capacity)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node n%d\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "link l%d n%d %g\n", i, i, capacity)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "path via-l%d l%d\n", i, i)
	}
	for i := 0; i < n; i++ {
		paths := fmt.Sprintf("via-l%d", i)
		if alt && n > 1 {
			paths += fmt.Sprintf(",via-l%d", (i+1)%n)
		}
		fmt.Fprintf(&b, "pair p%d n%d n%d %s\n", i, i, (i+1)%n, paths)
	}
	return b.String()
}
