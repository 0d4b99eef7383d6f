package resv

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/policy"
)

// TestCellAdmitRunMatchesSingles admits seeded runs — keys repeating, some
// already held, at and below the bound — through AdmitRun on one cell and
// through single Reserves on a twin, and checks that every op comes to the
// same outcome and both policies hold the same count.
func TestCellAdmitRunMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		bound := 1 + rng.IntN(8)
		var cells [2]Cell[int]
		for i := range cells {
			pol, err := policy.NewCounting(float64(bound), bound)
			if err != nil {
				t.Fatal(err)
			}
			cells[i].Init(0, pol, 0, 0)
		}
		var lk Locked
		for k := uint64(1); k <= 12; k++ {
			if rng.IntN(3) == 0 {
				for i := range cells {
					cells[i].Reserve(&lk, 0, Frame{Type: MsgRequest, FlowID: k, Value: 1}, ^uint64(0), nil, 0)
					lk.Unlock()
				}
			}
		}
		run := make([]Frame, 1+rng.IntN(16))
		for i := range run {
			run[i] = Frame{Type: MsgRequest, FlowID: 1 + rng.Uint64N(16), Value: 1}
		}
		var granted, held BatchVerdict
		AdmitRun(func(uint64) *Cell[int] { return &cells[0] }, &lk, 0, run, ^uint64(0), nil, 0, 0, &granted, &held)
		lk.Unlock()
		for i, f := range run {
			_, out := cells[1].Reserve(&lk, 0, f, ^uint64(0), nil, 0)
			lk.Unlock()
			if granted.Granted(i) != (out == Granted) || held.Granted(i) != (out == Held) {
				t.Fatalf("trial %d, bound %d, op %d (key %d): run granted=%v held=%v, single outcome %d",
					trial, bound, i, f.FlowID, granted.Granted(i), held.Granted(i), out)
			}
		}
		if a, b := cells[0].Policy().Active(), cells[1].Policy().Active(); a != b {
			t.Fatalf("trial %d: run leaves %d claims, singles %d", trial, a, b)
		}
	}
}

// TestCellReleasesOnce races every release path — teardown by key, the
// owner's drain and TTL expiry — over the same holds in cells sharing one
// policy, with the owner holding a list in every cell: each hold is
// released exactly once, and everything drains.
func TestCellReleasesOnce(t *testing.T) {
	const ncells, nholds = 4, 512
	const ttl = 256 * time.Millisecond
	rng := rand.New(rand.NewPCG(3, 4))
	for round := 0; round < 20; round++ {
		pol, err := policy.NewCounting(nholds, nholds)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]Cell[uint64], ncells)
		for i := range cells {
			cells[i].Init(i, pol, ttl, 0)
		}
		cell := func(i int) *Cell[uint64] { return &cells[i] }
		cellOf := func(key uint64) *Cell[uint64] { return &cells[key%ncells] }
		var o Owner[uint64]
		o.Init(ncells)
		var lk Locked
		for k := uint64(0); k < nholds; k++ {
			_, out := cellOf(k).Reserve(&lk, 0, Frame{Type: MsgRequest, FlowID: k, Value: 1}, ^uint64(0), &o, k)
			lk.Unlock()
			if out != Granted {
				t.Fatalf("admit %d: outcome %d", k, out)
			}
		}
		for i := range cells {
			if n := ownerLen(&o, cell, i); n != nholds/ncells {
				t.Fatalf("owner lists %d holds in cell %d, want %d", n, i, nholds/ncells)
			}
		}
		order := rng.Perm(nholds)
		var released, drained, expired atomic.Int64
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for _, k := range order {
				ok := cellOf(uint64(k)).Release(&lk, 0, uint64(k), &o)
				lk.Unlock()
				if ok {
					released.Add(1)
				}
			}
		}()
		go func() {
			defer wg.Done()
			drained.Add(int64(o.Drain(0, cell)))
		}()
		go func() {
			defer wg.Done()
			for now := int64(0); now <= 2*int64(ttl); now += int64(time.Millisecond) {
				for i := range cells {
					expired.Add(int64(cells[i].Advance(now, nil)))
				}
			}
		}()
		wg.Wait()
		if n := released.Load() + drained.Load() + expired.Load(); n != nholds {
			t.Fatalf("round %d: %d released + %d drained + %d expired = %d, want each of %d holds once",
				round, released.Load(), drained.Load(), expired.Load(), n, nholds)
		}
		if a := pol.Active(); a != 0 {
			t.Fatalf("round %d: policy holds %d claims after every release", round, a)
		}
		n := 0
		for i := range cells {
			n += ownerLen(&o, cell, i)
		}
		if n != 0 || !o.Empty() {
			t.Fatalf("round %d: owner still lists %d holds (empty %v)", round, n, o.Empty())
		}
		for i := range cells {
			cells[i].Lock()
			n := cells[i].Len()
			cells[i].Unlock()
			if n != 0 {
				t.Fatalf("round %d: cell %d still holds %d", round, i, n)
			}
		}
	}
}

// ownerLen counts the holds on o's list for cell i, under the cell's lock.
func ownerLen[P any](o *Owner[P], cell func(int) *Cell[P], i int) int {
	c := cell(i)
	c.Lock()
	defer c.Unlock()
	n := 0
	for s := o.lists[i].head; s != nil; s = s.onext {
		n++
	}
	return n
}
