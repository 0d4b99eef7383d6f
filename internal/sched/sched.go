// Package sched implements the packet-scheduling substrate the paper's
// reservation-capable architecture presumes: admission control decides
// *who* gets in (internal/core, internal/resv), and a fair-queueing
// scheduler is what *enforces* each admitted flow's share on the wire. The
// paper's integrated-services context builds on generalized processor
// sharing (Parekh & Gallager, reference [10] in the paper); this package
// implements SCFQ — self-clocked fair queueing (Golestani) — a practical
// packet-by-packet approximation of GPS with the same long-run share
// guarantees, plus a FIFO scheduler as the best-effort baseline.
//
// The package-level simulator drives either scheduler with per-flow packet
// processes and measures realized throughput, so tests can verify the
// paper's premise directly: under overload, FIFO sharing collapses in
// proportion to the aggressor's demand, while fair queueing holds every
// admitted flow at its reserved share.
//
// Both schedulers are allocation-free in steady state: FIFO is a ring
// buffer (which also shrinks after large backlogs drain, so a burst cannot
// pin memory forever), and SCFQ keeps one packet ring per flow plus an
// intrusive 4-ary heap of backlogged flows keyed by head-packet finish
// tag — Enqueue and Dequeue are 0 allocs/op once the rings have warmed up.
package sched

import "fmt"

// Packet is one unit of work offered to the link.
type Packet struct {
	// Flow identifies the owning flow.
	Flow int
	// Size is the packet's service requirement (e.g. bits).
	Size float64
	// Arrival is the packet's arrival time.
	Arrival float64
}

// Scheduler selects the order in which queued packets are served.
type Scheduler interface {
	// Enqueue accepts a packet at its arrival time.
	Enqueue(p Packet) error
	// Dequeue pops the next packet to serve, or false when idle.
	Dequeue() (Packet, bool)
}

// fifoMinCap is the smallest ring capacity FIFO keeps once allocated;
// shrinking below it would churn on ordinary traffic.
const fifoMinCap = 16

// FIFO is the best-effort baseline: a single shared queue, no isolation.
// It is a ring buffer: Enqueue and Dequeue are amortized O(1) and do not
// let the backing array grow without bound under sustained backlog — the
// ring halves itself whenever it is no more than a quarter full.
type FIFO struct {
	ring  []Packet
	head  int
	count int
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(p Packet) error {
	if p.Size <= 0 {
		return fmt.Errorf("sched: packet size must be positive, got %g", p.Size)
	}
	if f.count == len(f.ring) {
		f.resize(max(2*len(f.ring), fifoMinCap))
	}
	f.ring[(f.head+f.count)%len(f.ring)] = p
	f.count++
	return nil
}

// Dequeue implements Scheduler.
func (f *FIFO) Dequeue() (Packet, bool) {
	if f.count == 0 {
		return Packet{}, false
	}
	p := f.ring[f.head]
	f.ring[f.head] = Packet{}
	f.head = (f.head + 1) % len(f.ring)
	f.count--
	if len(f.ring) > fifoMinCap && f.count <= len(f.ring)/4 {
		f.resize(max(len(f.ring)/2, fifoMinCap))
	}
	return p, true
}

// resize relocates the ring into a fresh array of the given capacity.
func (f *FIFO) resize(capacity int) {
	next := make([]Packet, capacity)
	for i := 0; i < f.count; i++ {
		next[i] = f.ring[(f.head+i)%len(f.ring)]
	}
	f.ring = next
	f.head = 0
}

// scfqItem is a queued packet with its SCFQ finish tag. seq preserves
// global FIFO order among equal tags.
type scfqItem struct {
	pkt    Packet
	finish float64
	seq    uint64
}

// scfqFlow is one flow's state: its weight, last finish tag, a ring buffer
// of queued packets (per-flow tags are strictly increasing, so the ring is
// already in service order), and its position in the backlog heap.
type scfqFlow struct {
	ring    []scfqItem
	head    int
	count   int
	weight  float64
	lastF   float64
	heapIdx int32 // index into SCFQ.heap, -1 when not backlogged
}

func (f *scfqFlow) headItem() *scfqItem { return &f.ring[f.head] }

func (f *scfqFlow) push(it scfqItem) {
	if f.count == len(f.ring) {
		next := make([]scfqItem, max(2*len(f.ring), 8))
		for i := 0; i < f.count; i++ {
			next[i] = f.ring[(f.head+i)%len(f.ring)]
		}
		f.ring = next
		f.head = 0
	}
	f.ring[(f.head+f.count)%len(f.ring)] = it
	f.count++
}

func (f *scfqFlow) pop() scfqItem {
	it := f.ring[f.head]
	f.ring[f.head] = scfqItem{}
	f.head = (f.head + 1) % len(f.ring)
	f.count--
	return it
}

// SCFQ is self-clocked fair queueing: each packet gets a finish tag
// F = max(V, F_prev(flow)) + size/weight, where the virtual time V is the
// finish tag of the packet currently in service; packets are served in
// increasing tag order. Backlogged flows receive throughput proportional
// to their weights, as GPS prescribes.
//
// Packets live in per-flow ring buffers; the heap holds only backlogged
// flows, keyed by their head packet's (finish, seq). Within a flow, tags
// are strictly increasing, so serving heap-minimum head packets yields
// exactly the global (finish, seq) order with a heap of size O(#flows)
// instead of O(#packets) — and zero allocation in steady state.
type SCFQ struct {
	flows   []scfqFlow    // dense flow table
	slot    map[int]int32 // flow ID → flows index
	heap    []int32       // backlogged flow indices, 4-ary min-heap
	v       float64
	seq     uint64
	backlog int
}

// NewSCFQ returns an empty fair queueing scheduler. Flows not explicitly
// weighted get weight 1.
func NewSCFQ() *SCFQ {
	return &SCFQ{slot: make(map[int]int32)}
}

// flowSlot returns the dense index for a flow ID, creating it on first use.
func (s *SCFQ) flowSlot(id int) int32 {
	if fi, ok := s.slot[id]; ok {
		return fi
	}
	fi := int32(len(s.flows))
	s.flows = append(s.flows, scfqFlow{weight: 1, heapIdx: -1})
	s.slot[id] = fi
	return fi
}

// SetWeight assigns a flow's weight (share of capacity among backlogged
// flows). Weights must be positive.
func (s *SCFQ) SetWeight(flow int, w float64) error {
	if !(w > 0) {
		return fmt.Errorf("sched: weight must be positive, got %g", w)
	}
	s.flows[s.flowSlot(flow)].weight = w
	return nil
}

// Enqueue implements Scheduler.
func (s *SCFQ) Enqueue(p Packet) error {
	if p.Size <= 0 {
		return fmt.Errorf("sched: packet size must be positive, got %g", p.Size)
	}
	fi := s.flowSlot(p.Flow)
	f := &s.flows[fi]
	start := s.v
	if f.lastF > start {
		start = f.lastF
	}
	finish := start + p.Size/f.weight
	f.lastF = finish
	s.seq++
	f.push(scfqItem{pkt: p, finish: finish, seq: s.seq})
	s.backlog++
	if f.count == 1 {
		s.heapPush(fi)
	}
	return nil
}

// Dequeue implements Scheduler; serving a packet advances virtual time to
// its finish tag (the "self-clocking").
func (s *SCFQ) Dequeue() (Packet, bool) {
	if s.backlog == 0 {
		return Packet{}, false
	}
	fi := s.heap[0]
	f := &s.flows[fi]
	it := f.pop()
	s.v = it.finish
	s.backlog--
	if f.count > 0 {
		// The flow's next head has a later tag: re-settle it in place.
		s.siftDown(0)
	} else {
		s.heapRemoveTop()
	}
	return it.pkt, true
}

// heapLess orders backlogged flows by their head packet's (finish, seq).
func (s *SCFQ) heapLess(a, b int32) bool {
	ha, hb := s.flows[a].headItem(), s.flows[b].headItem()
	if ha.finish != hb.finish {
		return ha.finish < hb.finish
	}
	return ha.seq < hb.seq
}

func (s *SCFQ) heapPush(fi int32) {
	s.heap = append(s.heap, fi)
	i := int32(len(s.heap) - 1)
	s.flows[fi].heapIdx = i
	s.siftUp(i)
}

func (s *SCFQ) heapRemoveTop() {
	n := len(s.heap) - 1
	s.flows[s.heap[0]].heapIdx = -1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.flows[s.heap[0]].heapIdx = 0
		s.siftDown(0)
	}
}

func (s *SCFQ) siftUp(i int32) {
	for i > 0 {
		p := (i - 1) >> 2
		if !s.heapLess(s.heap[i], s.heap[p]) {
			break
		}
		s.swap(i, p)
		i = p
	}
}

func (s *SCFQ) siftDown(i int32) {
	n := int32(len(s.heap))
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.heapLess(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !s.heapLess(s.heap[m], s.heap[i]) {
			break
		}
		s.swap(i, m)
		i = m
	}
}

func (s *SCFQ) swap(i, j int32) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.flows[s.heap[i]].heapIdx = i
	s.flows[s.heap[j]].heapIdx = j
}
