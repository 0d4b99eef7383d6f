package main

import (
	"math"
	"time"

	"beqos/internal/obs"
	"beqos/internal/policy"
	"beqos/internal/resv"
	"beqos/internal/workload"
)

// replayBudget is how long each per-layer replay keeps repeating its input,
// so that a layer costing a few nanoseconds per call is timed over millions
// of calls and two clock reads.
const replayBudget = 100 * time.Millisecond

// repeat calls pass until replayBudget has passed and returns the mean
// time per pass, in nanoseconds.
func repeat(pass func()) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < replayBudget {
		pass()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// frameLog keeps, per caller, the request frames of the calls made in the
// traced slices of a traced run, one entry per call, for the codec and
// policy replays. Copying the frames is what tracing costs a serving call.
type frameLog struct {
	on    bool // whether the current slice is traced
	slice int  // the current slice
	calls [callers][]loggedCall
	n     [callers]int
	// full is, per caller, the first slice in which a call no longer fitted
	// under frameLogCap, or 0 while every call has; slice 0 is never traced.
	full [callers]int
}

// loggedCall is one call's request frames, the slice it ran in and, per
// frame, whether the live system granted it (meaningful for reserves only).
type loggedCall struct {
	slice   int
	frames  []resv.Frame
	granted []bool
}

// frameLogCap bounds the frames a log keeps per caller.
const frameLogCap = 1 << 19

// newFrameLog returns a log for a traced run, and nil for an untraced one.
func newFrameLog(cfg config) *frameLog {
	if !cfg.trace {
		return nil
	}
	return &frameLog{}
}

// hook is drive's trace hook for the log, or nil without a log.
func (l *frameLog) hook() func(k int, on bool) {
	if l == nil {
		return nil
	}
	return func(k int, on bool) { l.slice, l.on = k, on }
}

func (l *frameLog) add(w int, frames []resv.Frame, granted func(i int) bool) {
	if !l.on {
		return
	}
	if l.n[w]+len(frames) > frameLogCap {
		if l.full[w] == 0 {
			l.full[w] = l.slice
		}
		return
	}
	c := loggedCall{slice: l.slice, frames: append([]resv.Frame(nil), frames...), granted: make([]bool, len(frames))}
	for i := range frames {
		c.granted[i] = granted(i)
	}
	l.calls[w] = append(l.calls[w], c)
	l.n[w] += len(frames)
}

// tracedUntil is the first slice in which the log no longer took every
// call, or math.MaxInt if it took them all.
func (l *frameLog) tracedUntil() int {
	until := math.MaxInt
	for _, k := range l.full {
		if k != 0 {
			until = min(until, k)
		}
	}
	return until
}

// interleaved returns the logged calls slice by slice, with the callers'
// calls alternated within a slice: the order a server most plausibly saw
// them in.
func (l *frameLog) interleaved() []loggedCall {
	var out []loggedCall
	var pos [callers]int
	for {
		slice := -1 // the earliest slice some caller still has calls of
		for w := range l.calls {
			if pos[w] < len(l.calls[w]) && (slice < 0 || l.calls[w][pos[w]].slice < slice) {
				slice = l.calls[w][pos[w]].slice
			}
		}
		if slice < 0 {
			return out
		}
		for more := true; more; {
			more = false
			for w := range l.calls {
				if pos[w] < len(l.calls[w]) && l.calls[w][pos[w]].slice == slice {
					out = append(out, l.calls[w][pos[w]])
					pos[w]++
					more = true
				}
			}
		}
	}
}

// replayCodec times the public codec on the logged frames: AppendFrame and
// DecodeFrames per frame, and BatchCollector per body op, each call's
// frames forming one batch body.
func (o *outcome) replayCodec(l *frameLog) {
	var calls [][]resv.Frame
	nframes := 0
	for _, c := range l.interleaved() {
		calls = append(calls, c.frames)
		nframes += len(c.frames)
	}
	if nframes == 0 {
		return
	}
	buf := make([]byte, 0, nframes*resv.FrameSize)
	encode := repeat(func() {
		buf = buf[:0]
		for _, c := range calls {
			for _, f := range c {
				buf = resv.AppendFrame(buf, f)
			}
		}
	})
	frames := make([]resv.Frame, 0, nframes)
	decode := repeat(func() {
		frames, _, _ = resv.DecodeFrames(frames[:0], buf)
	})
	o.check(len(frames) == nframes, "codec replay decoded %d of %d frames", len(frames), nframes)
	// The collector replay feeds each call's reserves and teardowns, the
	// frames a batch body may carry, as bodies of up to MaxBatch ops.
	var bodies [][]resv.Frame
	bodyOps := 0
	for _, c := range calls {
		var ops []resv.Frame
		for _, f := range c {
			if f.Type == resv.MsgRequest || f.Type == resv.MsgTeardown {
				ops = append(ops, f)
			}
		}
		for off := 0; off < len(ops); off += resv.MaxBatch {
			bodies = append(bodies, ops[off:min(off+resv.MaxBatch, len(ops))])
		}
		bodyOps += len(ops)
	}
	var bc resv.BatchCollector
	collect := repeat(func() {
		for _, body := range bodies {
			if bc.Begin(resv.BatchHeader(len(body))) != nil {
				return
			}
			for _, f := range body {
				if _, err := bc.Add(f); err != nil {
					return
				}
			}
		}
	})
	o.layer["resv.codec.encode_ns"] = encode / float64(nframes)
	o.layer["resv.codec.decode_ns"] = decode / float64(nframes)
	o.layer["resv.codec.collect_ns"] = ratio(collect, float64(bodyOps))
}

// replayPolicy replays the logged reserves and teardowns through a fresh
// counting policy of the given bound: a reserve is an Admit, the teardown
// of a flow the replay granted is a Release. A flow the live system denied
// never sends a teardown, so if the replay grants it, it leaves again at
// once. The untraced slices between the logged ones are missing, so each
// traced slice is replayed as a sequence of its own: it starts from an
// empty policy, and what it still holds at its end leaves then. A first
// pass settles which ops release; the timed passes then replay the
// balanced sequence, so every pass starts and ends with an empty policy.
func (o *outcome) replayPolicy(l *frameLog, bound int) error {
	c, err := policy.NewCounting(float64(bound), bound)
	if err != nil {
		return err
	}
	var p policy.Policy = c // called through the interface, as the server does
	granted := map[uint64]bool{}
	var seq []bool // true admits, false releases
	releaseAll := func() {
		for range granted {
			p.Release(0, 1)
			seq = append(seq, false)
		}
		clear(granted)
	}
	admits, denials, slice := 0, 0, -1
	for _, c := range l.interleaved() {
		if c.slice != slice {
			releaseAll()
			slice = c.slice
		}
		for i, f := range c.frames {
			switch f.Type {
			case resv.MsgRequest:
				admits++
				seq = append(seq, true)
				switch {
				case !p.Admit(0, f.FlowID, 1, 0).Admit:
					denials++
				case c.granted[i]:
					granted[f.FlowID] = true
				default:
					p.Release(0, 1)
					seq = append(seq, false)
				}
			case resv.MsgTeardown:
				if granted[f.FlowID] {
					delete(granted, f.FlowID)
					p.Release(0, 1)
					seq = append(seq, false)
				}
			}
		}
	}
	if admits == 0 {
		return nil
	}
	releaseAll()
	ns := repeat(func() {
		for _, admit := range seq {
			if admit {
				p.Admit(0, 0, 1, 0)
			} else {
				p.Release(0, 1)
			}
		}
	})
	o.check(p.Active() == 0, "policy replay left %d flows admitted", p.Active())
	o.layer["policy.admit_ns"] = ns / float64(len(seq))
	o.layer["policy.deny_ratio"] = float64(denials) / float64(admits)
	return nil
}

// replayWorkload times workload.Parse on spec and Stream.Next per flow.
func (o *outcome) replayWorkload(spec string, seed uint64) error {
	var scn *workload.Scenario
	var err error
	parse := repeat(func() { scn, err = workload.Parse(spec) })
	if err != nil {
		return err
	}
	flows := 0
	next := repeat(func() {
		st := scn.Stream(seed, seed^0x5eed)
		for flows = 0; flows < 1<<16; flows++ {
			if _, ok := st.Next(); !ok {
				break
			}
		}
	})
	o.layer["workload.parse_us"] = parse / 1e3
	o.layer["workload.next_ns"] = ratio(next, float64(flows))
	return nil
}

// replayObs times Histogram.RecordN, the call every serving loop makes
// once per read batch.
func (o *outcome) replayObs() {
	h := obs.NewHistogram()
	const n = 1 << 12
	ns := repeat(func() {
		for i := uint64(1); i <= n; i++ {
			h.RecordN(i*397, 32)
		}
	})
	o.layer["obs.record_ns"] = ns / n
}

// histDelta is the count and sum recorded into a histogram between two
// snapshots.
func histDelta(before, after obs.HistSnapshot) (count, sum uint64) {
	return after.Count - before.Count, after.Sum - before.Sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
