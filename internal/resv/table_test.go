package resv

import (
	"math/rand/v2"
	"testing"
)

// rec is a test record: a slot in a Table and on an owner's List, and a
// timer in a Wheel, as the serving planes' records are.
type rec struct {
	slot     Slot[*rec]
	owner    int
	deadline int64
	timer    Timer[*rec]
}

// tableModel runs a Table, per-owner Lists and a Wheel side by side with a
// map and per-owner key sets, and checks that they agree.
type tableModel struct {
	t      *testing.T
	tab    Table[*rec]
	lists  []List[*rec]
	wheel  *Wheel[*rec]
	res    int64
	now    int64
	model  map[uint64]*rec
	owners []map[uint64]bool
	made   int // records allocated, as opposed to reused
}

func newTableModel(t *testing.T, owners int) *tableModel {
	m := &tableModel{
		t:      t,
		lists:  make([]List[*rec], owners),
		res:    10,
		model:  make(map[uint64]*rec),
		owners: make([]map[uint64]bool, owners),
	}
	m.wheel = NewWheel[*rec](10, 0)
	for i := range m.owners {
		m.owners[i] = make(map[uint64]bool)
	}
	return m
}

// insert installs key for owner the way the serving planes do: a lookup
// first, so a duplicate leaves everything as it was.
func (m *tableModel) insert(key uint64, owner int, ttl int64) {
	m.t.Helper()
	if e := m.tab.Get(key); e != nil {
		if m.model[key] != e {
			m.t.Fatalf("duplicate insert of %d: table has %p, model %p", key, e, m.model[key])
		}
		return
	}
	if _, ok := m.model[key]; ok {
		m.t.Fatalf("Get(%d) missed a record the model holds", key)
	}
	e := m.tab.Reuse()
	if e == nil {
		e = new(rec)
		m.made++
	}
	e.owner, e.deadline = owner, m.now+ttl
	m.tab.Insert(&e.slot, key, e)
	m.lists[owner].Push(&e.slot)
	m.wheel.Schedule(&e.timer, e, e.deadline)
	m.model[key] = e
	m.owners[owner][key] = true
}

// remove unrecords e: timer (lazily), table, owner list.
func (m *tableModel) remove(e *rec) {
	key := e.slot.key
	e.timer.Stop()
	m.tab.Remove(&e.slot)
	m.lists[e.owner].Remove(&e.slot)
	delete(m.model, key)
	delete(m.owners[e.owner], key)
}

func (m *tableModel) delete(key uint64) {
	m.t.Helper()
	e := m.tab.Get(key)
	if e != m.model[key] {
		m.t.Fatalf("Get(%d) = %p, model %p", key, e, m.model[key])
	}
	if e != nil {
		m.remove(e)
	}
}

// drain releases every record of owner front first, as a dropped
// connection does, and checks it released exactly the owner's keys.
func (m *tableModel) drain(owner int) {
	m.t.Helper()
	want := len(m.owners[owner])
	got := 0
	for e := m.lists[owner].Front(); e != nil; e = m.lists[owner].Front() {
		if !m.owners[owner][e.slot.key] {
			m.t.Fatalf("owner %d lists key %d it does not hold", owner, e.slot.key)
		}
		m.remove(e)
		got++
	}
	if got != want || len(m.owners[owner]) != 0 {
		m.t.Fatalf("drain of owner %d released %d records, want %d", owner, got, want)
	}
}

// advance moves the clock and expires what the wheel reports due; each
// expired record must be live and past its deadline's tick.
func (m *tableModel) advance(dt int64) {
	m.t.Helper()
	m.now += dt
	m.wheel.Advance(m.now, func(e *rec) {
		if m.model[e.slot.key] != e {
			m.t.Fatalf("wheel expired key %d, which is not live", e.slot.key)
		}
		if e.deadline/m.res >= m.now/m.res {
			m.t.Fatalf("key %d expired at %d, before its deadline %d's tick ended", e.slot.key, m.now, e.deadline)
		}
		m.remove(e)
	})
	for key, e := range m.model {
		if e.deadline/m.res < m.now/m.res {
			m.t.Fatalf("key %d (deadline %d) still live at %d", key, e.deadline, m.now)
		}
	}
}

// check compares every view of the table with the model.
func (m *tableModel) check() {
	m.t.Helper()
	if m.tab.Len() != len(m.model) {
		m.t.Fatalf("Len = %d, model holds %d", m.tab.Len(), len(m.model))
	}
	seen := 0
	m.tab.Each(func(e *rec) {
		if m.model[e.slot.key] != e {
			m.t.Fatalf("Each visited key %d, which the model does not hold", e.slot.key)
		}
		seen++
	})
	if seen != len(m.model) {
		m.t.Fatalf("Each visited %d records, model holds %d", seen, len(m.model))
	}
	for key, e := range m.model {
		if got := m.tab.Get(key); got != e {
			m.t.Fatalf("Get(%d) = %p, want %p", key, got, e)
		}
	}
	for o := range m.lists {
		l := &m.lists[o]
		if l.Empty() != (len(m.owners[o]) == 0) {
			m.t.Fatalf("owner %d: list Empty %v, model holds %d", o, l.Empty(), len(m.owners[o]))
		}
		n := 0
		for p := &l.head; *p != nil; p = &(*p).onext {
			s := *p
			if s.oprev != p {
				m.t.Fatalf("owner %d: broken back link at key %d", o, s.key)
			}
			if !m.owners[o][s.key] || s.item.owner != o {
				m.t.Fatalf("owner %d lists key %d it does not hold", o, s.key)
			}
			n++
		}
		if n != len(m.owners[o]) {
			m.t.Fatalf("owner %d: list walk found %d records, model holds %d", o, n, len(m.owners[o]))
		}
	}
}

// TestTableMatchesModel drives random inserts (duplicates included),
// lookups, deletes, owner drains and wheel advances against a Go map with
// per-owner sets. A first phase with no drains or advances grows the table
// through several doublings; after it, keys come from a window that slides
// upward, and records are reused while their stopped timers still sit in
// the wheel.
func TestTableMatchesModel(t *testing.T) {
	const growSteps, steps = 8000, 20000
	for seed := uint64(1); seed <= 4; seed++ {
		m := newTableModel(t, 5)
		rng := rand.New(rand.NewPCG(seed, 7))
		var base uint64
		for step := 0; step < steps; step++ {
			if step == growSteps && len(m.tab.heads) < 1024 {
				t.Fatalf("seed %d: %d buckets after the growth phase, want at least 1024", seed, len(m.tab.heads))
			}
			width := uint64(64 + step/5)
			if step >= growSteps {
				width = 64 + growSteps/5
				base++
			}
			key := base + rng.Uint64N(width)
			op := rng.IntN(100)
			if step < growSteps && op >= 95 {
				op = rng.IntN(55) // an insert instead of a drain or an advance
			}
			switch {
			case op < 55:
				m.insert(key, rng.IntN(len(m.lists)), 1+rng.Int64N(4000))
			case op < 75:
				if got := m.tab.Get(key); got != m.model[key] {
					t.Fatalf("seed %d step %d: Get(%d) = %p, model %p", seed, step, key, got, m.model[key])
				}
			case op < 95:
				m.delete(key)
			case op < 96:
				m.drain(rng.IntN(len(m.lists)))
			default:
				m.advance(rng.Int64N(200))
			}
			if step%997 == 0 {
				m.check()
			}
		}
		m.check()
		if m.made >= steps/2 {
			t.Fatalf("seed %d: %d records allocated; removed records are not being reused", seed, m.made)
		}
		for o := range m.lists {
			m.drain(o)
		}
		m.check()
	}
}

// TestTableChainPositions removes records from the head, the middle and
// the tail of one bucket chain, and checks the rest of the chain each time.
func TestTableChainPositions(t *testing.T) {
	m := newTableModel(t, 1)
	// Force the bucket array to its first size, then pick keys that all
	// hash to bucket 0 of it — few enough not to trigger growth.
	m.insert(1<<62, 0, 100)
	m.delete(1 << 62)
	var keys []uint64
	for k := uint64(0); len(keys) < minTableHeads-1; k++ {
		if (k*tableMul)>>m.tab.shift == 0 {
			keys = append(keys, k)
		}
	}
	heads := len(m.tab.heads)
	for _, k := range keys {
		m.insert(k, 0, 100)
	}
	if len(m.tab.heads) != heads {
		t.Fatalf("table grew to %d buckets; the chain test needs one array", len(m.tab.heads))
	}
	chain := func() []uint64 {
		var ks []uint64
		for s := m.tab.heads[0]; s != nil; s = s.next {
			ks = append(ks, s.key)
		}
		return ks
	}
	if got := chain(); len(got) != len(keys) {
		t.Fatalf("bucket 0 chains %v, want all of %v", got, keys)
	}
	// Chains push at the head, so the last key inserted leads.
	for _, pos := range []string{"middle", "head", "tail", "middle", "head"} {
		c := chain()
		var k uint64
		switch pos {
		case "head":
			k = c[0]
		case "middle":
			k = c[len(c)/2]
		case "tail":
			k = c[len(c)-1]
		}
		m.delete(k)
		m.check()
		if got := chain(); len(got) != len(c)-1 {
			t.Fatalf("after removing %s key %d: chain %v, was %v", pos, k, got, c)
		}
	}
}

// TestTableReuseWithLinkedTimer reuses a removed record whose stopped
// timer is still linked in its wheel bucket: the new incarnation expires
// once, at its own deadline, and the old deadline expires nothing.
func TestTableReuseWithLinkedTimer(t *testing.T) {
	m := newTableModel(t, 2)
	m.insert(7, 0, 500)
	e := m.model[7]
	m.delete(7)
	if e.timer.next == nil {
		t.Fatal("a stopped timer should stay linked until its bucket comes due")
	}
	// Reinserted under another key for another owner, due earlier and then
	// later than the stale link.
	for _, ttl := range []int64{200, 900} {
		m.insert(9, 1, ttl)
		if m.model[9] != e {
			t.Fatal("the removed record was not reused")
		}
		m.advance(ttl - 1)
		m.check()
		if m.tab.Get(9) != e {
			t.Fatalf("ttl %d: record expired before its deadline", ttl)
		}
		m.advance(m.res + 1)
		if m.tab.Get(9) != nil || !m.lists[1].Empty() {
			t.Fatalf("ttl %d: record not expired one tick past its deadline", ttl)
		}
		m.check()
	}
	m.advance(2000)
	m.check()
}

// TestTableSteadyStateZeroAlloc pins install and remove, with an owner
// list, at zero allocations once the table has grown and holds recycled
// records.
func TestTableSteadyStateZeroAlloc(t *testing.T) {
	var tab Table[*rec]
	var l List[*rec]
	const n = 1024
	recs := make([]*rec, 0, n)
	cycle := func(base uint64) {
		for k := base; k < base+n; k++ {
			e := tab.Reuse()
			if e == nil {
				e = new(rec)
			}
			tab.Insert(&e.slot, k, e)
			l.Push(&e.slot)
			recs = append(recs, e)
		}
		for _, e := range recs {
			if tab.Get(e.slot.key) != e {
				t.Fatalf("Get(%d) lost its record", e.slot.key)
			}
			tab.Remove(&e.slot)
			l.Remove(&e.slot)
		}
		recs = recs[:0]
	}
	cycle(0) // warm-up: grows the bucket array and fills the free list
	var base uint64
	allocs := testing.AllocsPerRun(50, func() {
		base += n
		cycle(base)
	})
	if allocs != 0 {
		t.Fatalf("steady-state install/remove allocates %v per %d records, want 0", allocs, n)
	}
}
