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
// through single Admits on a twin, and checks that every op comes to the
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
			cells[i].Init(pol, 0, time.Now())
		}
		for k := uint64(1); k <= 12; k++ {
			if rng.IntN(3) == 0 {
				for i := range cells {
					cells[i].Admit(0, k, 1, 0, nil, 0)
				}
			}
		}
		run := make([]Frame, 1+rng.IntN(16))
		for i := range run {
			run[i] = Frame{Type: MsgRequest, FlowID: 1 + rng.Uint64N(16), Value: 1}
		}
		var granted, held BatchVerdict
		AdmitRun(func(uint64) *Cell[int] { return &cells[0] }, 0, run, ^uint64(0), nil, 0, 0, &granted, &held)
		for i, f := range run {
			_, out, _ := cells[1].Admit(0, f.FlowID, 1, 0, nil, 0)
			if granted.Granted(i) != (out == Granted) || held.Granted(i) != (out == HeldOwn || out == HeldOther) {
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
// policy: each hold is released exactly once, and everything drains.
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
			cells[i].Init(pol, ttl, time.Now())
		}
		cellOf := func(key uint64) *Cell[uint64] { return &cells[key%ncells] }
		var o Owner[uint64]
		for k := uint64(0); k < nholds; k++ {
			if _, out, _ := cellOf(k).Admit(0, k, 1, 0, &o, k); out != Granted {
				t.Fatalf("admit %d: outcome %d", k, out)
			}
		}
		order := rng.Perm(nholds)
		var released, drained, expired atomic.Int64
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for _, k := range order {
				if cellOf(uint64(k)).Release(0, uint64(k), &o) {
					released.Add(1)
				}
			}
		}()
		go func() {
			defer wg.Done()
			n := o.Drain(0, func(h *Hold[uint64]) *Cell[uint64] { return cellOf(h.slot.key) }, func(key, val uint64) {
				if val != key {
					t.Errorf("drained hold %d carries %d", key, val)
				}
			})
			drained.Add(int64(n))
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
		if n := o.Len(); n != 0 {
			t.Fatalf("round %d: owner still lists %d holds", round, n)
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
