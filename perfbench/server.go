package main

import (
	"sync"

	"beqos/internal/obs"
	"beqos/internal/resv"
	"beqos/internal/rng"
)

// seedPair derives caller w's seed pair from the run's seed.
func seedPair(seed uint64, w int) (uint64, uint64) {
	return rng.Substream(seed, 0xbe0905, uint64(w))
}

// warm runs f once per caller, concurrently, and waits for all of them.
func warm(f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// serverSnap is a reading of a resv.Server's instruments.
type serverSnap struct {
	request, batch obs.HistSnapshot
}

func snapServer(s *resv.Server) serverSnap {
	m := s.Metrics()
	return serverSnap{
		request: m.RequestNS.Snapshot(),
		batch:   m.BatchFrames.Snapshot(),
	}
}

// checkServer compares the server's counters with the callers' tallies,
// which must agree exactly.
func (o *outcome) checkServer(m *resv.ServerMetrics, s tally) {
	for _, c := range []struct {
		name         string
		server, seen uint64
	}{
		{"grants", m.Grants.Load(), s.grants},
		{"denials", m.Denials.Load(), s.denials},
		{"reserves", m.Reserves.Load(), s.grants + s.denials},
		{"teardowns", m.Teardowns.Load(), s.teardowns},
		{"refreshes", m.Refreshes.Load(), s.refreshes},
		{"errors", m.Errors.Load(), 0},
	} {
		o.check(c.server == c.seen, "server counted %d %s, callers %d", c.server, c.name, c.seen)
	}
}

// setServer fills the resv.server ledger entries from the server's
// instruments over the timed region r, and the residual: the part of a
// call's time the server's own self time does not explain.
func (o *outcome) setServer(before, after serverSnap, r region) {
	reqs, reqNS := histDelta(before.request, after.request)
	reads, frames := histDelta(before.batch, after.batch)
	o.layer["resv.server.request_ns"] = ratio(float64(reqNS), float64(reqs))
	o.layer["resv.server.frames_per_read"] = ratio(float64(frames), float64(reads))
	o.setResidual(&r.all.calls, float64(reqNS))
}
