package main

import (
	"fmt"
	"io"
	"net"
	"sync"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// window is the number of frames one pipelined call writes on a classic
// connection before it reads their replies.
const window = 32

// wire is one caller's classic connection to a resv.Server over net.Pipe.
// A call writes its whole window in one write and then reads the window's
// replies, which the server answers in order. A window fits in the
// server's read buffer, so the write completes before the replies start.
type wire struct {
	nc   net.Conn
	out  []byte
	in   []byte
	reps []resv.Frame
	done sync.WaitGroup
}

func dialServer(srv *resv.Server) *wire {
	a, b := net.Pipe()
	w := &wire{nc: a}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		srv.HandleConn(b)
	}()
	return w
}

// roundTrip sends frames as one window and returns the replies, which
// alias the wire's buffer until the next call.
func (c *wire) roundTrip(frames []resv.Frame) ([]resv.Frame, error) {
	c.out = c.out[:0]
	for _, f := range frames {
		c.out = resv.AppendFrame(c.out, f)
	}
	if _, err := c.nc.Write(c.out); err != nil {
		return nil, err
	}
	n := len(frames) * resv.FrameSize
	if cap(c.in) < n {
		c.in = make([]byte, n)
	}
	if _, err := io.ReadFull(c.nc, c.in[:n]); err != nil {
		return nil, err
	}
	var err error
	c.reps, _, err = resv.DecodeFrames(c.reps[:0], c.in[:n])
	return c.reps, err
}

// tearDown releases ids in windows, counting the answers into t.
func (c *wire) tearDown(ids []uint64, t *tally) {
	var frames []resv.Frame
	for off := 0; off < len(ids); off += window {
		frames = frames[:0]
		for _, id := range ids[off:min(off+window, len(ids))] {
			frames = append(frames, resv.Frame{Type: resv.MsgTeardown, FlowID: id})
		}
		reps, err := c.roundTrip(frames)
		if err != nil {
			t.fail(len(frames), "clean-up round trip: %v", err)
			continue
		}
		for _, r := range reps {
			if r.Type == resv.MsgTeardownOK {
				t.teardowns++
			} else {
				t.fail(1, "clean-up teardown of %#x answered with %s", r.FlowID, r.Type)
			}
		}
	}
}

// close drops the connection and waits until the server has released
// everything it held.
func (c *wire) close() {
	_ = c.nc.Close()
	c.done.Wait()
}

// tally is one caller's count of answered operations, kept for the exact
// comparison with the server's counters, plus the failures it saw.
type tally struct {
	grants, denials, teardowns, refreshes uint64
	// failed counts ops answered wrongly or not at all; problems keeps the
	// first few reasons.
	failed   uint64
	problems []string
}

func (t *tally) fail(n int, format string, args ...interface{}) {
	t.failed += uint64(n)
	if len(t.problems) < 4 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// settle checks one reply to a reserve or teardown op, counts it, and
// tells the schedule the verdict.
func (t *tally) settle(c *churn, op churnOp, r resv.Frame) {
	if r.FlowID != op.id {
		t.fail(1, "reply for flow %#x answered op on flow %#x", r.FlowID, op.id)
		return
	}
	switch {
	case op.teardown && r.Type == resv.MsgTeardownOK:
		t.teardowns++
	case !op.teardown && r.Type == resv.MsgGrant:
		t.grants++
		c.settle(op, true)
	case !op.teardown && r.Type == resv.MsgDeny:
		t.denials++
		c.settle(op, false)
	default:
		t.fail(1, "flow %#x: %s answered with %s", op.id, op.frame().Type, r.Type)
		c.settle(op, false)
	}
}

// sum adds up the callers' tallies, tallyOf(w) being caller w's, and
// records the problems they saw as failed checks.
func (o *outcome) sum(tallyOf func(w int) *tally) tally {
	var s tally
	for w := 0; w < callers; w++ {
		t := tallyOf(w)
		s.grants += t.grants
		s.denials += t.denials
		s.teardowns += t.teardowns
		s.refreshes += t.refreshes
		s.failed += t.failed
		for _, p := range t.problems {
			o.check(false, "%s", p)
		}
	}
	return s
}

// Link workload parameters: the paper's bottleneck link at its operating
// point, kmax(C) = C = 100 with the adaptive utility, offered k̄ = kmax
// split evenly between the callers.
const (
	linkCapacity = 100
	linkFlows    = 1 << 15 // flows per schedule period, per caller
	linkWarmup   = 8000    // windows per caller run during set-up
)

// linkCaller is one closed-loop caller of the link workload.
type linkCaller struct {
	wire   *wire
	churn  *churn
	ops    []churnOp
	frames []resv.Frame
	tally
}

type linkInst struct {
	srv     *resv.Server
	callers []*linkCaller
}

func buildLink(seed uint64) (*linkInst, error) {
	srv, err := resv.NewServer(linkCapacity, utility.NewAdaptive())
	if err != nil {
		return nil, err
	}
	in := &linkInst{srv: srv}
	for w := 0; w < callers; w++ {
		s1, s2 := seedPair(seed, w)
		ch, err := newChurn(srv.KMax()/callers, linkFlows, s1, s2, linkID(w))
		if err != nil {
			return nil, err
		}
		in.callers = append(in.callers, &linkCaller{churn: ch})
	}
	for _, c := range in.callers {
		c.wire = dialServer(srv)
	}
	warm(func(w int) {
		for i := 0; i < linkWarmup; i++ {
			in.call(w, nil)
		}
	})
	return in, nil
}

// call runs one window on caller w's connection and returns its ops. With
// a log, the window's frames are recorded for the layer replays.
func (in *linkInst) call(w int, log *frameLog) int {
	c := in.callers[w]
	c.ops = c.churn.next(c.ops[:0], window)
	c.frames = c.frames[:0]
	for _, op := range c.ops {
		c.frames = append(c.frames, op.frame())
	}
	reps, err := c.wire.roundTrip(c.frames)
	if err != nil || len(reps) != len(c.ops) {
		c.fail(len(c.ops), "window round trip: %d replies, %v", len(reps), err)
		return len(c.ops)
	}
	for i, op := range c.ops {
		c.settle(c.churn, op, reps[i])
	}
	if a := in.srv.Active(); a > in.srv.KMax() {
		c.fail(0, "active %d exceeds the bound %d", a, in.srv.KMax())
	}
	if log != nil {
		log.add(w, c.frames, func(i int) bool { return reps[i].Type == resv.MsgGrant })
	}
	return len(c.ops)
}

// cleanUp tears down every held flow, then closes the connections.
func (in *linkInst) cleanUp() {
	for _, c := range in.callers {
		c.wire.tearDown(c.churn.held(), &c.tally)
	}
	in.close()
}

func (in *linkInst) close() {
	for _, c := range in.callers {
		c.wire.close()
	}
}

func runLink(cfg config) (*outcome, error) {
	o := newOutcome()
	in, setup, err := setUp(cfg, func() (*linkInst, error) { return buildLink(cfg.seed) }, (*linkInst).close)
	if err != nil {
		return nil, err
	}
	log := newFrameLog(cfg)
	before := snapServer(in.srv)
	r := drive(cfg.duration(), func(w int) int { return in.call(w, log) }, log.hook())
	after := snapServer(in.srv)
	in.cleanUp()

	s := o.sum(func(w int) *tally { return &in.callers[w].tally })
	o.checkServer(in.srv.Metrics(), s)
	o.check(in.srv.Active() == 0, "%d flows held after clean-up", in.srv.Active())
	o.attempted, o.failed = r.all.ops, s.failed

	if !cfg.trace {
		o.setEndToEnd(r, setup)
		return o, nil
	}
	o.setRuntime(r, log.tracedUntil())
	o.setServer(before, after, r)
	o.replayCodec(log)
	if err := o.replayPolicy(log, in.srv.KMax()); err != nil {
		return nil, err
	}
	if err := o.replayWorkload(in.callers[0].churn.text, cfg.seed); err != nil {
		return nil, err
	}
	o.replayObs()
	return o, nil
}
