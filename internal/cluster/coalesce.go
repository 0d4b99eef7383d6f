package cluster

import (
	"context"
	"sync"

	"beqos/internal/resv"
)

// hopOp is one remote-hop operation (claim or release) awaiting a
// coalesced flush to its link's owner. Ops are recycled through the
// coalescer's free list, so the steady-state forward path allocates
// nothing.
type hopOp struct {
	frame resv.Frame // MsgRequest or MsgTeardown, FlowID = linkIdx<<48 | hopKey
	// granted/err are valid once wait returns: granted is the op's verdict
	// bit, err a transport-level failure of the whole flush.
	granted bool
	err     error
	done    bool       // the verdict is in; guarded by co.mu
	co      *coalescer // owner free list, so any holder can recycle with op.co.put(op)
	next    *hopOp
}

// wait returns once the op has its verdict. While no flush of the peer is
// in flight, the caller flushes the queue itself, oldest ops first, so it
// may ship other callers' ops before its own; while one is, it parks until
// that flush ends.
func (op *hopOp) wait() {
	co := op.co
	co.mu.Lock()
	for !op.done {
		if co.flushing {
			co.flushed.Wait()
		} else {
			co.flush()
		}
	}
	co.mu.Unlock()
}

// coalescer batches one peer's outbound hop RPCs: enqueued ops accumulate
// in a FIFO and the waiting callers ship them as MsgReserveBatch bodies,
// up to resv.MaxBatch ops per RPC. Claims and teardowns to the same peer
// share batches, and FIFO order is preserved end to end — the owner
// processes body ops in order, so a teardown enqueued before a claim frees
// its slot first, exactly as the unbatched wire behaved.
//
// Flushes are serial per peer: while one batch RPC is in flight, new ops
// pile up and ship together on the next flush (group commit), so
// concurrency raises the coalescing factor instead of the RPC rate.
type coalescer struct {
	mc *resv.Client
	n  *Node

	mu       sync.Mutex
	flushed  sync.Cond // on mu: signalled when a flush ends
	head     *hopOp
	tail     *hopOp
	free     *hopOp
	flushing bool
	// The flush in flight's scratch, owned by its caller.
	ops  []*hopOp
	body []resv.Frame
}

func newCoalescer(n *Node, mc *resv.Client) *coalescer {
	co := &coalescer{
		mc:   mc,
		n:    n,
		ops:  make([]*hopOp, 0, resv.MaxBatch),
		body: make([]resv.Frame, 0, resv.MaxBatch),
	}
	co.flushed.L = &co.mu
	return co
}

// enqueue queues one op for the peer and returns it, nil when the node is
// shutting down (the caller treats nil as a transport error). The caller
// must wait on the op — an op nobody waits on ships only with another
// caller's flush — then read the results and return it with put.
func (co *coalescer) enqueue(f resv.Frame) *hopOp {
	if co.n.lc.Stopping() {
		return nil
	}
	co.mu.Lock()
	op := co.free
	if op != nil {
		co.free = op.next
		op.next = nil
	} else {
		op = &hopOp{co: co}
	}
	op.frame, op.granted, op.err, op.done = f, false, nil, false
	if co.tail != nil {
		co.tail.next = op
	} else {
		co.head = op
	}
	co.tail = op
	co.mu.Unlock()
	return op
}

// put recycles a completed op.
func (co *coalescer) put(op *hopOp) {
	co.mu.Lock()
	op.next = co.free
	co.free = op
	co.mu.Unlock()
}

// flush ships up to one batch of queued ops, FIFO, gives each its verdict
// and wakes the parked callers. A transport error fails every op of the
// flush; the ops queued behind it fail on the next flush, at once, since
// the client's error is terminal. co.mu is held on entry and on return,
// and released across the round trip.
func (co *coalescer) flush() {
	co.flushing = true
	ops := co.ops[:0]
	for co.head != nil && len(ops) < resv.MaxBatch {
		op := co.head
		co.head, op.next = op.next, nil
		ops = append(ops, op)
	}
	if co.head == nil {
		co.tail = nil
	}
	co.mu.Unlock()
	if len(ops) == 1 {
		// A lone op rides the classic single-frame RPC, keeping the
		// unbatched wire byte-identical: an uncoalesced cluster puts
		// exactly the frames on the wire it always did.
		op := ops[0]
		if op.frame.Type == resv.MsgRequest {
			op.granted, _, op.err = co.mc.ReserveClass(context.Background(), op.frame.FlowID, op.frame.Value, op.frame.Class)
		} else {
			op.err = co.mc.Teardown(context.Background(), op.frame.FlowID)
			op.granted = op.err == nil
		}
	} else {
		body := co.body[:0]
		for _, op := range ops {
			body = append(body, op.frame)
		}
		v, _, err := co.mc.ReserveBatch(context.Background(), body)
		for i, op := range ops {
			op.granted, op.err = err == nil && v.Granted(i), err
		}
	}
	co.mu.Lock()
	for _, op := range ops {
		op.done = true
	}
	co.flushing = false
	co.flushed.Broadcast()
}
