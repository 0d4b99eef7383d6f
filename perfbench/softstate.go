package main

import (
	"math/rand/v2"
	"time"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// Softstate workload parameters: a TTL server holding a standing
// population far beyond the cache, refreshed in random order, beside a
// small reserve/teardown churn. The capacity leaves room for both, so no
// reserve is denied; the link workload covers the deny path.
const (
	ssStanding = 100000 // standing flows, half installed and owned by each caller
	ssStale    = 16     // one standing flow in ssStale is never refreshed
	ssCapacity = 1 << 17
	ssTTL      = 2 * time.Second
	ssChurnOps = 8  // reserve/teardown ops per window; refreshes fill the rest
	ssKbar     = 50 // churn load per caller
	ssFlows    = 1 << 15
	ssWarmup   = 1000 // windows per caller run during set-up
	// ssIdle is the quiet interval of the idle-CPU probe, short enough that
	// the refreshed flows outlive it and the wait for the un-refreshed ones.
	ssIdle = 500 * time.Millisecond
)

// ssCaller is one closed-loop caller of the softstate workload.
type ssCaller struct {
	wire    *wire
	churn   *churn
	refresh []uint64 // the caller's refreshed standing flows, in random order
	next    int
	ops     []churnOp
	frames  []resv.Frame
	tally
}

type ssInst struct {
	srv     *resv.Server
	callers []*ssCaller
	stale   int // standing flows never refreshed
}

// standingID is the ID of caller w's i-th standing flow; bit 55 keeps it
// apart from every churn ID.
func standingID(w, i int) uint64 { return uint64(w)<<56 | 1<<55 | uint64(i) }

func buildSoftstate(seed uint64) (*ssInst, error) {
	srv, err := resv.NewServerTTL(ssCapacity, utility.NewAdaptive(), ssTTL)
	if err != nil {
		return nil, err
	}
	in := &ssInst{srv: srv}
	for w := 0; w < callers; w++ {
		s1, s2 := seedPair(seed, w)
		ch, err := newChurn(ssKbar, ssFlows, s1, s2, linkID(w))
		if err != nil {
			srv.Close()
			return nil, err
		}
		c := &ssCaller{churn: ch}
		for i := 0; i < ssStanding/callers; i++ {
			if i%ssStale == 0 {
				in.stale++
			} else {
				c.refresh = append(c.refresh, standingID(w, i))
			}
		}
		rand.New(rand.NewPCG(s1, s2)).Shuffle(len(c.refresh), func(i, j int) {
			c.refresh[i], c.refresh[j] = c.refresh[j], c.refresh[i]
		})
		in.callers = append(in.callers, c)
	}
	for _, c := range in.callers {
		c.wire = dialServer(srv)
	}
	warm(func(w int) {
		c := in.callers[w]
		for off := 0; off < ssStanding/callers; off += window {
			c.frames = c.frames[:0]
			for i := off; i < min(off+window, ssStanding/callers); i++ {
				c.frames = append(c.frames, resv.Frame{Type: resv.MsgRequest, FlowID: standingID(w, i), Value: 1})
			}
			reps, err := c.wire.roundTrip(c.frames)
			if err != nil {
				c.fail(len(c.frames), "install round trip: %v", err)
				return
			}
			for _, r := range reps {
				if r.Type == resv.MsgGrant {
					c.grants++
				} else {
					c.fail(1, "install of %#x answered with %s", r.FlowID, r.Type)
				}
			}
		}
		for i := 0; i < ssWarmup; i++ {
			in.call(w, nil)
		}
	})
	return in, nil
}

// call runs one window of caller w: up to ssChurnOps churn ops, then
// refreshes of standing flows, cycling through the caller's random order
// so every refreshed flow is renewed well within the TTL.
func (in *ssInst) call(w int, log *frameLog) int {
	c := in.callers[w]
	c.ops = c.churn.next(c.ops[:0], ssChurnOps)
	c.frames = c.frames[:0]
	for _, op := range c.ops {
		c.frames = append(c.frames, op.frame())
	}
	for len(c.frames) < window {
		c.frames = append(c.frames, resv.Frame{Type: resv.MsgRefresh, FlowID: c.refresh[c.next]})
		if c.next++; c.next == len(c.refresh) {
			c.next = 0
		}
	}
	reps, err := c.wire.roundTrip(c.frames)
	if err != nil || len(reps) != len(c.frames) {
		c.fail(len(c.frames), "window round trip: %d replies, %v", len(reps), err)
		return len(c.frames)
	}
	for i, op := range c.ops {
		c.settle(c.churn, op, reps[i])
	}
	for i, r := range reps[len(c.ops):] {
		if f := c.frames[len(c.ops)+i]; r.Type != resv.MsgRefreshOK || r.FlowID != f.FlowID {
			c.fail(1, "refresh of %#x answered with %s", f.FlowID, r.Type)
			continue
		}
		c.refreshes++
	}
	if a := in.srv.Active(); a > in.srv.KMax() {
		c.fail(0, "active %d exceeds the bound %d", a, in.srv.KMax())
	}
	if log != nil {
		log.add(w, c.frames, func(i int) bool { return reps[i].Type == resv.MsgGrant })
	}
	return len(c.frames)
}

func (in *ssInst) close() {
	for _, c := range in.callers {
		c.wire.close()
	}
	in.srv.Close()
}

// awaitExpiries waits until the server has expired n flows, or until the
// TTL and a margin have passed since the last refresh.
func awaitExpiries(srv *resv.Server, n int) {
	deadline := time.Now().Add(ssTTL + time.Second)
	for srv.Metrics().Expiries.Load() < uint64(n) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

func runSoftstate(cfg config) (*outcome, error) {
	o := newOutcome()
	in, setup, err := setUp(cfg, func() (*ssInst, error) { return buildSoftstate(cfg.seed) }, (*ssInst).close)
	if err != nil {
		return nil, err
	}
	log := newFrameLog(cfg)
	before := snapServer(in.srv)
	r := drive(cfg.duration(), func(w int) int { return in.call(w, log) }, log.hook())
	after := snapServer(in.srv)
	var idle float64
	if cfg.trace {
		idle = idleCPU(ssIdle) // the wheel ticking over the standing flows
	}
	awaitExpiries(in.srv, in.stale)
	m := in.srv.Metrics()
	o.check(m.Expiries.Load() == uint64(in.stale), "server expired %d flows, %d were left un-refreshed", m.Expiries.Load(), in.stale)

	// Clean-up: tear the churn down, then drop the connections, which
	// releases every refreshed standing flow.
	held := 0
	for _, c := range in.callers {
		held += len(c.refresh)
		c.wire.tearDown(c.churn.held(), &c.tally)
	}
	in.close()
	s := o.sum(func(w int) *tally { return &in.callers[w].tally })
	o.checkServer(m, s)
	o.check(m.Releases.Load() == uint64(held), "connection drops released %d flows, %d were held", m.Releases.Load(), held)
	o.check(in.srv.Active() == 0, "%d flows held after clean-up", in.srv.Active())
	o.attempted, o.failed = r.all.ops, s.failed

	if !cfg.trace {
		o.setEndToEnd(r, setup)
		return o, nil
	}
	o.setRuntime(r, log.tracedUntil())
	o.setServer(before, after, r)
	o.layer["resv.server.refreshes"] = float64(m.Refreshes.Load())
	o.layer["resv.server.expiries"] = float64(m.Expiries.Load())
	o.layer["resv.server.idle_cpu_ms_per_s"] = idle
	o.replayCodec(log)
	if err := o.replayWorkload(in.callers[0].churn.text, cfg.seed); err != nil {
		return nil, err
	}
	o.replayObs()
	return o, nil
}
