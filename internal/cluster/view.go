package cluster

import (
	"sync"
	"sync/atomic"
)

// view is a node's eventually-consistent picture of every remote link's
// occupancy, fed by gossip (MsgGossip frames the owner posts on its peer
// connection: piggybacked on its forwarded traffic, plus the periodic
// anti-entropy tick). Snapshots are versioned by a counter the owning node
// alone increments, so application is monotone: a frame that arrives out
// of order can never roll occupancy backwards.
//
// A remote link's snapshots arrive on the serving goroutine of its owner's
// peer connection (the client plane refuses gossip: a forged version could
// freeze the view), but apply serializes a cell's writers with the cell's
// lock, which only apply takes, so the view stays monotone for any number
// of writers: the version check and the stores are one step. The router
// reads without the lock, and sees the old snapshot, the new one or a mix,
// all true recently.
type view struct {
	cells []viewCell
}

type viewCell struct {
	mu      sync.Mutex // serializes apply
	active  atomic.Int64
	version atomic.Uint64
	own     atomic.Int64 // the viewing node's Node.own[link] as it landed
	// updated is the local receive time (nanoseconds on the viewing node's
	// monotonic clock); 0 means no snapshot has ever arrived. The router
	// compares it against the staleness bound before trusting active.
	updated atomic.Int64
}

func newView(nlinks int) *view {
	return &view{cells: make([]viewCell, nlinks)}
}

// apply installs a snapshot, and the viewing node's own-claim count on the
// link as it lands, if its version advances the cell. It reports whether
// the snapshot was fresh.
func (v *view) apply(link int, version uint64, active, own, now int64) bool {
	c := &v.cells[link]
	// Versions only grow, so a snapshot stale now stays stale: it needs
	// no lock.
	if version <= c.version.Load() {
		return false
	}
	c.mu.Lock()
	fresh := version > c.version.Load()
	if fresh {
		c.active.Store(active)
		c.own.Store(own)
		c.version.Store(version)
		c.updated.Store(now)
	}
	c.mu.Unlock()
	return fresh
}

// load returns the link's last gossiped active count and when it arrived
// (0 = never).
func (v *view) load(link int) (active int64, updated int64) {
	c := &v.cells[link]
	return c.active.Load(), c.updated.Load()
}

// estimate is load less the claims the viewing node released since the
// snapshot landed (own is its Node.own[link] now). Its claims since are
// not added: the snapshot may count one whose grant had not yet landed.
func (v *view) estimate(link int, own int64) (active int64, updated int64) {
	c := &v.cells[link]
	active = c.active.Load()
	if moved := own - c.own.Load(); moved < 0 {
		active += moved
	}
	return active, c.updated.Load()
}
