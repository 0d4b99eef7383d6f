package cluster

import (
	"sync"
	"sync/atomic"
)

// view is a node's eventually-consistent picture of every remote link's
// occupancy, fed by gossip (MsgGossip frames piggybacked on forwarded
// traffic plus the periodic anti-entropy tick). Snapshots are versioned by
// a counter the owning node alone increments, so application is monotone:
// a frame that arrives out of order (an anti-entropy burst overtaking a
// piggyback on another connection) can never roll occupancy backwards.
//
// A remote link's snapshots reach a node on two goroutines: the owner's
// posted gossip on the inbound peer connection, and the gossip riding its
// batch replies on this node's outbound client to it. (The client plane
// refuses gossip: a forged version could freeze the view.) So apply
// serializes a cell's writers with the cell's lock, which only apply
// takes: the version check and the three stores are one step, and a later
// version is never overwritten by an earlier one. The router reads without the lock; reading active and
// updated mid-store, it sees either the old or the new snapshot, both of
// which were true recently.
type view struct {
	cells []viewCell
}

type viewCell struct {
	mu      sync.Mutex // serializes apply
	active  atomic.Int64
	version atomic.Uint64
	// updated is the local receive time (nanoseconds on the viewing node's
	// monotonic clock); 0 means no snapshot has ever arrived. The router
	// compares it against the staleness bound before trusting active.
	updated atomic.Int64
}

func newView(nlinks int) *view {
	return &view{cells: make([]viewCell, nlinks)}
}

// apply installs a snapshot if its version advances the cell. It reports
// whether the snapshot was fresh.
func (v *view) apply(link int, version uint64, active int64, now int64) bool {
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
