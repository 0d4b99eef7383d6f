package resv

import (
	"context"
	"net"
	"testing"
	"time"

	"beqos/internal/utility"
)

// collectExpired advances w to now and returns the expired flow IDs.
func collectExpired(w *Wheel[uint64], now int64) []uint64 {
	var ids []uint64
	w.Advance(now, func(id uint64) { ids = append(ids, id) })
	return ids
}

func TestWheelExpiresAfterDeadlineNeverAt(t *testing.T) {
	w := NewWheel[uint64](10, 0)
	w.Schedule(new(Timer[uint64]), 1, 50)
	// At the deadline itself (and anywhere inside its tick) nothing may
	// expire: tick 5 is only processed once now is past its end (now ≥ 60).
	for _, now := range []int64{0, 49, 50, 59} {
		if got := collectExpired(w, now); len(got) != 0 {
			t.Fatalf("advance(%d) expired %v; deadline 50 must survive to its tick end", now, got)
		}
	}
	if got := collectExpired(w, 60); len(got) != 1 || got[0] != 1 {
		t.Fatalf("advance(60) expired %v, want [1]", got)
	}
}

func TestWheelRefreshRelinksBeforeExpiry(t *testing.T) {
	// The off-by-one-bucket hazard: a flow refreshed exactly at its TTL
	// boundary (new deadline set while the old bucket is still pending)
	// must survive the advance that drains the old bucket.
	w := NewWheel[uint64](10, 0)
	tm := new(Timer[uint64])
	w.Schedule(tm, 7, 100)
	// Refresh at t = 100 — exactly the old deadline.
	w.Schedule(tm, 7, 100+100)
	if got := collectExpired(w, 110); len(got) != 0 {
		t.Fatalf("refreshed flow expired by old bucket: %v", got)
	}
	if got := collectExpired(w, 210); len(got) != 1 || got[0] != 7 {
		t.Fatalf("advance(210) expired %v, want [7]", got)
	}
}

func TestWheelDeadlinesBeyondOneLap(t *testing.T) {
	// Deadlines more than one lap (256 ticks) out share a bucket with
	// nearer ones; each must be re-filed until its own tick comes due and
	// still expire strictly after its deadline.
	w := NewWheel[uint64](1, 0)
	for _, tc := range []struct {
		id       uint64
		deadline int64
	}{
		{1, 10},    // first lap
		{2, 100},   // first lap
		{3, 4000},  // sixteenth lap
		{4, 40000}, // more than 150 laps out
	} {
		w.Schedule(new(Timer[uint64]), tc.id, tc.deadline)
	}
	expired := make(map[uint64]int64)
	for now := int64(0); now <= 50000; now += 7 {
		w.Advance(now, func(id uint64) { expired[id] = now })
	}
	want := map[uint64]int64{1: 10, 2: 100, 3: 4000, 4: 40000}
	for id, dl := range want {
		at, ok := expired[id]
		if !ok {
			t.Errorf("flow %d (deadline %d) never expired", id, dl)
			continue
		}
		if at <= dl {
			t.Errorf("flow %d expired at %d, not strictly after deadline %d", id, at, dl)
		}
		if at > dl+64+7 {
			t.Errorf("flow %d expired at %d, far past deadline %d", id, at, dl)
		}
	}
}

func TestWheelUnlinkRemoves(t *testing.T) {
	w := NewWheel[uint64](1, 0)
	keep, gone := new(Timer[uint64]), new(Timer[uint64])
	w.Schedule(keep, 1, 5)
	w.Schedule(gone, 2, 5)
	gone.Stop() // teardown before expiry
	gone.Stop() // and again: stopping an unlinked timer is a no-op
	if got := collectExpired(w, 100); len(got) != 1 || got[0] != 1 {
		t.Fatalf("expired %v, want [1]", got)
	}
}

func TestWheelLazyRearm(t *testing.T) {
	// Stop and postpone leave a timer in its bucket; the advance that
	// drains the bucket drops or re-files it. A deadline moved earlier is
	// relinked at once, so it is never expired late.
	w := NewWheel[uint64](1, 0)
	reused, earlier, far := new(Timer[uint64]), new(Timer[uint64]), new(Timer[uint64])
	w.Schedule(reused, 1, 10)
	reused.Stop()              // torn down...
	w.Schedule(reused, 2, 30)  // ...and its record reused for another flow
	w.Schedule(earlier, 3, 50) // filed at 50
	w.Schedule(earlier, 3, 20) // moved earlier: must go at 20, not 50
	w.Schedule(far, 4, 1000)   // beyond one lap
	far.Stop()
	expired := make(map[uint64]int64)
	for now := int64(0); now <= 2000; now++ {
		w.Advance(now, func(id uint64) { expired[id] = now })
	}
	want := map[uint64]int64{2: 31, 3: 21}
	if len(expired) != len(want) {
		t.Fatalf("expired %v, want %v", expired, want)
	}
	for id, at := range want {
		if expired[id] != at {
			t.Errorf("flow %d expired at %d, want %d", id, expired[id], at)
		}
	}
}

func TestWheelPostponeOneLapRefilesIntoDrainedBucket(t *testing.T) {
	// A timer postponed exactly one lap past the bucket it sits in is
	// re-filed into the very bucket the advance is draining. It must wait
	// out that lap, not expire (or be met again) in the same advance.
	w := NewWheel[uint64](1, 0)
	tm := new(Timer[uint64])
	w.Schedule(tm, 1, 10)
	w.Schedule(tm, 1, 10+wheelSlots) // postponed in place: still in bucket 10
	if got := collectExpired(w, 11); len(got) != 0 {
		t.Fatalf("advance(11) expired %v; the deadline is a lap away", got)
	}
	if tm.pprev != &w.slots[10] {
		t.Fatal("the postponed timer was not re-filed into the bucket being drained")
	}
	if got := collectExpired(w, 10+wheelSlots); len(got) != 0 {
		t.Fatalf("advance(%d) expired %v before the deadline tick ended", 10+wheelSlots, got)
	}
	if got := collectExpired(w, 11+wheelSlots); len(got) != 1 || got[0] != 1 {
		t.Fatalf("advance(%d) expired %v, want [1]", 11+wheelSlots, got)
	}
}

// A hold is armed one TTL after the read's instant, while the expiry loop
// has yet to drain the read's tick. Its bucket must not be the one that
// drain empties, or the drain re-files it there and it is filed twice (as
// when a TTL was exactly a lap of ticks, at 300 ms or 1 s).
func TestWheelArmOneTTLOutFiledOnce(t *testing.T) {
	for _, ttl := range []time.Duration{300 * time.Millisecond, time.Second} {
		res := int64(WheelRes(ttl))
		refiled := 0
		for i := int64(0); i < 1000; i++ {
			now := i * 1_000_003 // arm instants across many ticks and tick offsets
			w := NewWheel[uint64](time.Duration(res), now)
			w.Schedule(new(Timer[uint64]), 1, now+int64(ttl))
			tick := now / res
			if got := collectExpired(w, (tick+1)*res); len(got) != 0 {
				t.Fatalf("TTL %v: the arm tick's advance expired %v", ttl, got)
			}
			if w.slots[tick%wheelSlots] != nil {
				refiled++
			}
		}
		if refiled != 0 {
			t.Errorf("TTL %v: %d of 1000 holds armed one TTL out were re-filed into the bucket their arm tick drained", ttl, refiled)
		}
	}
}

func TestWheelPastDeadlineStillExpires(t *testing.T) {
	// A deadline whose tick was already processed must land in an imminent
	// bucket, not be lost for a full wheel lap.
	w := NewWheel[uint64](1, 0)
	w.Advance(100, func(id uint64) { t.Fatalf("unexpected expiry of %d", id) })
	w.Schedule(new(Timer[uint64]), 9, 3) // long past
	if got := collectExpired(w, 102); len(got) != 1 || got[0] != 9 {
		t.Fatalf("expired %v, want [9]", got)
	}
}

// TestRefreshAtTTLBoundaryNotExpired is the end-to-end form of the
// off-by-one-bucket regression: against a live TTL server, a refresh
// landing right at the deadline must keep the reservation alive for a
// fresh TTL.
func TestRefreshAtTTLBoundaryNotExpired(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 300 * time.Millisecond
	s, err := NewServerTTL(4, r, ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	cl := NewClient(cEnd)
	defer cl.Close()
	ctx := context.Background()
	ok, _, err := cl.Reserve(ctx, 1, 1)
	if err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}
	// Refresh as close to the TTL deadline as a real-time test can get.
	time.Sleep(ttl - 20*time.Millisecond)
	if _, err := cl.Refresh(ctx, 1); err != nil {
		t.Fatalf("refresh at boundary: %v", err)
	}
	// Well past the original deadline, within the refreshed one.
	time.Sleep(ttl / 2)
	if s.Active() != 1 {
		t.Fatalf("flow expired despite boundary refresh: active = %d", s.Active())
	}
	// And with no further refresh it must still expire.
	deadline := time.Now().Add(3 * ttl)
	for s.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flow never expired after refreshes stopped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
