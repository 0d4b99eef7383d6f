package cluster

import (
	"errors"
	"sync"
	"time"

	"beqos/internal/resv"
)

// errNodeClosed fails hop ops still pending when their node shuts down.
var errNodeClosed = errors.New("cluster: node closed")

// hopOp is one remote-hop operation (claim or release) awaiting a
// coalesced flush to its link's owner. Ops are recycled through the
// coalescer's free list, so the steady-state forward path allocates
// nothing.
type hopOp struct {
	frame resv.Frame // MsgRequest or MsgTeardown, FlowID = linkIdx<<48 | hopKey
	// granted/err are valid after done is received: granted is the op's
	// verdict bit, err a transport-level failure of the whole flush.
	granted bool
	err     error
	co      *coalescer // owner free list, so any holder can recycle with op.co.put(op)
	done    chan struct{}
	next    *hopOp
}

// wait blocks until the op's flush delivered its result.
func (op *hopOp) wait() { <-op.done }

// coalescer batches one peer's outbound hop RPCs: enqueued ops accumulate
// in a FIFO and a dedicated flusher ships them as MsgReserveBatch bodies —
// up to resv.MaxBatch ops per RPC, flushed the moment the flusher is idle,
// or after the configured Nagle delay (whichever fills a batch first) when
// one is set. Claims and teardowns to the same peer share batches, and
// FIFO order is preserved end to end — the owner processes body ops in
// order, so a teardown enqueued before a claim frees its slot first,
// exactly as the unbatched wire behaved.
//
// The flusher is serial per peer: while one batch RPC is in flight, new
// ops pile up and ship together on the next flush (group commit), so
// concurrency raises the coalescing factor instead of the RPC rate.
type coalescer struct {
	mc    *resv.Client
	n     *Node
	delay time.Duration

	mu    sync.Mutex
	head  *hopOp
	tail  *hopOp
	npend int
	free  *hopOp
	dead  bool

	wake chan struct{} // 1-buffered: pending work exists
	full chan struct{} // 1-buffered: a full batch is waiting (cuts the Nagle delay short)
}

func newCoalescer(n *Node, mc *resv.Client, delay time.Duration) *coalescer {
	return &coalescer{
		mc:    mc,
		n:     n,
		delay: delay,
		wake:  make(chan struct{}, 1),
		full:  make(chan struct{}, 1),
	}
}

// enqueue hands one op to the flusher and returns its rendezvous, nil when
// the node is shutting down (the caller treats nil as a transport error).
// After wait, the caller reads the results and returns the op with put.
func (co *coalescer) enqueue(f resv.Frame) *hopOp {
	co.mu.Lock()
	if co.dead {
		co.mu.Unlock()
		return nil
	}
	op := co.free
	if op != nil {
		co.free = op.next
		op.next = nil
	} else {
		op = &hopOp{co: co, done: make(chan struct{}, 1)}
	}
	op.frame, op.granted, op.err = f, false, nil
	if co.tail != nil {
		co.tail.next = op
	} else {
		co.head = op
	}
	co.tail = op
	co.npend++
	fullNow := co.npend >= resv.MaxBatch
	co.mu.Unlock()
	select {
	case co.wake <- struct{}{}:
	default:
	}
	if fullNow {
		select {
		case co.full <- struct{}{}:
		default:
		}
	}
	return op
}

// put recycles a completed op.
func (co *coalescer) put(op *hopOp) {
	co.mu.Lock()
	op.next = co.free
	co.free = op
	co.mu.Unlock()
}

// take pops up to one batch of pending ops, FIFO.
func (co *coalescer) take(ops []*hopOp) []*hopOp {
	co.mu.Lock()
	for co.head != nil && len(ops) < resv.MaxBatch {
		op := co.head
		co.head = op.next
		op.next = nil
		if co.head == nil {
			co.tail = nil
		}
		co.npend--
		ops = append(ops, op)
	}
	co.mu.Unlock()
	return ops
}

func (co *coalescer) pending() int {
	co.mu.Lock()
	n := co.npend
	co.mu.Unlock()
	return n
}

// run is the flusher loop. It exits when the node stops, failing every
// still-pending op so no claimant blocks forever.
func (co *coalescer) run(stop <-chan struct{}) {
	defer co.n.wg.Done()
	ops := make([]*hopOp, 0, resv.MaxBatch)
	body := make([]resv.Frame, 0, resv.MaxBatch)
	for {
		select {
		case <-co.wake:
		case <-stop:
			co.shutdown()
			return
		}
		if co.delay > 0 && co.pending() < resv.MaxBatch {
			// Latency-bounded Nagle: hold the flush for up to delay, cut
			// short the moment a full batch is waiting.
			t := time.NewTimer(co.delay)
			select {
			case <-co.full:
			case <-t.C:
			case <-stop:
				t.Stop()
				co.shutdown()
				return
			}
			t.Stop()
		}
		for {
			ops = co.take(ops[:0])
			if len(ops) == 0 {
				break
			}
			if len(ops) == 1 {
				// A lone op rides the classic single-frame RPC, keeping the
				// unbatched wire byte-identical: an uncoalesced cluster puts
				// exactly the frames on the wire it always did.
				op := ops[0]
				if op.frame.Type == resv.MsgRequest {
					op.granted, _, op.err = co.mc.ReserveClass(co.n.ctx, op.frame.FlowID, op.frame.Value, op.frame.Class)
				} else {
					op.err = co.mc.Teardown(co.n.ctx, op.frame.FlowID)
					op.granted = op.err == nil
				}
				op.done <- struct{}{}
				continue
			}
			body = body[:0]
			for _, op := range ops {
				body = append(body, op.frame)
			}
			v, _, err := co.mc.ReserveBatch(co.n.ctx, body)
			for i, op := range ops {
				op.err = err
				if err == nil {
					op.granted = v.Granted(i)
				}
				op.done <- struct{}{}
			}
		}
	}
}

// shutdown marks the coalescer dead and fails everything still queued.
func (co *coalescer) shutdown() {
	co.mu.Lock()
	co.dead = true
	head := co.head
	co.head, co.tail, co.npend = nil, nil, 0
	co.mu.Unlock()
	for op := head; op != nil; {
		next := op.next
		op.next = nil
		op.err = errNodeClosed
		op.done <- struct{}{}
		op = next
	}
}
