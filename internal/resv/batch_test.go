package resv

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestBatchMixedOpsBitmap drives one body mixing teardowns and reserves
// through the classic client: ops are processed in body order — a flow
// torn down early in the body can be re-reserved later in the same body —
// and every op's verdict bit must come back set.
func TestBatchMixedOpsBitmap(t *testing.T) {
	s := newServer(t, 8)
	defer s.Close()
	cl := pipeClient(t, s)
	c := ctx(t)
	for id := uint64(1); id <= 2; id++ {
		if ok, _, err := cl.Reserve(c, id, 1); err != nil || !ok {
			t.Fatalf("seed reserve %d: ok=%v err=%v", id, ok, err)
		}
	}
	ops := []Frame{
		{Type: MsgTeardown, FlowID: 1},
		{Type: MsgRequest, FlowID: 3, Value: 1},
		{Type: MsgRequest, FlowID: 4, Value: 1},
		{Type: MsgTeardown, FlowID: 2},
		{Type: MsgRequest, FlowID: 1, Value: 1}, // re-reserve after the body's own teardown
	}
	v, share, err := cl.ReserveBatch(c, ops)
	if err != nil {
		t.Fatalf("ReserveBatch: %v", err)
	}
	if v.Count() != len(ops) {
		t.Fatalf("verdict %064b: %d ops ok, want all %d", uint64(v), v.Count(), len(ops))
	}
	if share != 1 { // C/kmax = 8/8
		t.Fatalf("batch share %g, want 1", share)
	}
	if a := s.Active(); a != 3 {
		t.Fatalf("active = %d after the mixed body, want 3 (flows 1, 3, 4)", a)
	}
}

// TestBatchStraddlesBound pins the wire-level partial-grant contract: a
// body straddling the last j free slots grants bits for exactly the first
// j requests, and a follow-up batch against the full link grants nothing
// and carries share 0.
func TestBatchStraddlesBound(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	cl := pipeClient(t, s)
	c := ctx(t)
	ops := make([]Frame, 6)
	for i := range ops {
		ops[i] = Frame{Type: MsgRequest, FlowID: uint64(i + 1), Value: 1}
	}
	v, share, err := cl.ReserveBatch(c, ops)
	if err != nil {
		t.Fatalf("ReserveBatch: %v", err)
	}
	for i := 0; i < 4; i++ {
		if !v.Granted(i) {
			t.Errorf("op %d inside the bound denied (verdict %06b)", i, uint64(v))
		}
	}
	for i := 4; i < 6; i++ {
		if v.Granted(i) {
			t.Errorf("op %d beyond the bound granted (verdict %06b)", i, uint64(v))
		}
	}
	if share != 1 {
		t.Errorf("partial batch share %g, want C/kmax = 1", share)
	}
	if a := s.Active(); a != 4 {
		t.Fatalf("active = %d, want the bound 4", a)
	}
	v, share, err = cl.ReserveBatch(c, []Frame{{Type: MsgRequest, FlowID: 9, Value: 1}, {Type: MsgRequest, FlowID: 10, Value: 1}})
	if err != nil || v != 0 || share != 0 {
		t.Fatalf("batch against a full link: verdict %b share %g err %v, want all-deny with share 0", uint64(v), share, err)
	}
}

// TestBatchDuplicateClearsBit sends the same flow twice in one body: the
// first op is granted, the duplicate rolls its claim back and keeps its
// bit clear, and exactly one reservation exists afterwards.
func TestBatchDuplicateClearsBit(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	cl := pipeClient(t, s)
	v, _, err := cl.ReserveBatch(ctx(t), []Frame{
		{Type: MsgRequest, FlowID: 7, Value: 1},
		{Type: MsgRequest, FlowID: 7, Value: 1},
	})
	if err != nil {
		t.Fatalf("ReserveBatch: %v", err)
	}
	if !v.Granted(0) || v.Granted(1) {
		t.Fatalf("verdict %02b, want the first grant and the duplicate's bit clear", uint64(v))
	}
	if a := s.Active(); a != 1 {
		t.Fatalf("active = %d after a duplicate in the body, want exactly 1", a)
	}
}

// TestBatchDuplicateAtBoundAdmitsRest puts a duplicate in the granted
// prefix of a run at the bound: its returned claim frees the slot the op
// after it would have won sent singly, so that op is granted too.
func TestBatchDuplicateAtBoundAdmitsRest(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	cl := pipeClient(t, s)
	for id := uint64(1); id <= 3; id++ {
		if ok, _, err := cl.Reserve(ctx(t), id, 1); err != nil || !ok {
			t.Fatalf("reserve %d: ok=%v err=%v", id, ok, err)
		}
	}
	v, _, err := cl.ReserveBatch(ctx(t), []Frame{
		{Type: MsgRequest, FlowID: 1, Value: 1},
		{Type: MsgRequest, FlowID: 100, Value: 1},
	})
	if err != nil {
		t.Fatalf("ReserveBatch: %v", err)
	}
	if v.Granted(0) || !v.Granted(1) {
		t.Fatalf("verdict %02b, want the duplicate's bit clear and flow 100 granted", uint64(v))
	}
	if a := s.Active(); a != 4 {
		t.Fatalf("active = %d, want 4", a)
	}
}

// TestBatchBodySpansReads splits a batch body across writes: the header
// and first body frame arrive in one segment, the second body frame in
// another. The per-connection collector must hold the partial body across
// the read boundary and answer the completed batch with one reply.
func TestBatchBodySpansReads(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	go s.HandleConn(sEnd)
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))

	first := AppendFrame(nil, BatchHeader(2))
	first = AppendFrame(first, Frame{Type: MsgRequest, FlowID: 1, Value: 1})
	if _, err := cEnd.Write(first); err != nil {
		t.Fatalf("write header+first op: %v", err)
	}
	// The body is incomplete: the server must be blocked reading, not
	// replying. Give it a moment to mis-reply if it were going to.
	time.Sleep(10 * time.Millisecond)
	if _, err := cEnd.Write(AppendFrame(nil, Frame{Type: MsgRequest, FlowID: 2, Value: 1})); err != nil {
		t.Fatalf("write second op: %v", err)
	}
	buf := make([]byte, FrameSize)
	if _, err := io.ReadFull(cEnd, buf); err != nil {
		t.Fatalf("read batch reply: %v", err)
	}
	reply, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgReserveBatchReply {
		t.Fatalf("reply type %s, want %s", reply.Type, MsgReserveBatchReply)
	}
	if v := BatchVerdict(reply.FlowID); v.Count() != 2 {
		t.Fatalf("verdict %02b, want both ops granted", reply.FlowID)
	}
	if a := s.Active(); a != 2 {
		t.Fatalf("active = %d, want 2", a)
	}
}

// TestBatchInvalidHeaderAndBody exercises the malformed-batch paths over a
// raw connection: a header with a length outside [1, MaxBatch] earns a
// MsgError, a non-request frame inside a body aborts the batch (dropping
// the collected prefix un-admitted) and is then served on its own terms,
// and the connection keeps working afterwards.
func TestBatchInvalidHeaderAndBody(t *testing.T) {
	s := newServer(t, 4)
	defer s.Close()
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	go s.HandleConn(sEnd)
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, FrameSize)
	read := func() Frame {
		t.Helper()
		if _, err := io.ReadFull(cEnd, buf); err != nil {
			t.Fatalf("read reply: %v", err)
		}
		f, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	for _, n := range []uint64{0, MaxBatch + 1} {
		if _, err := cEnd.Write(AppendFrame(nil, Frame{Type: MsgReserveBatch, FlowID: n})); err != nil {
			t.Fatal(err)
		}
		if f := read(); f.Type != MsgError || ErrorCode(f.Value) != ErrCodeBadRequest {
			t.Fatalf("batch length %d: reply %+v, want a bad-request error", n, f)
		}
	}

	// Header for 3 ops, one collected request, then a stats frame: the
	// batch aborts (MsgError), the stats frame is answered normally, and
	// the collected request must NOT have been admitted.
	bad := AppendFrame(nil, BatchHeader(3))
	bad = AppendFrame(bad, Frame{Type: MsgRequest, FlowID: 1, Value: 1})
	bad = AppendFrame(bad, Frame{Type: MsgStats})
	if _, err := cEnd.Write(bad); err != nil {
		t.Fatal(err)
	}
	if f := read(); f.Type != MsgError || ErrorCode(f.Value) != ErrCodeBadRequest {
		t.Fatalf("aborted batch: reply %+v, want a bad-request error", f)
	}
	if f := read(); f.Type != MsgStatsReply {
		t.Fatalf("frame after the aborted batch: reply %+v, want it served on its own terms (%s)", f, MsgStatsReply)
	}
	if a := s.Active(); a != 0 {
		t.Fatalf("active = %d after an aborted batch, want the collected prefix dropped un-admitted", a)
	}

	// The connection survives: a clean batch goes through.
	ok := AppendFrame(nil, BatchHeader(1))
	ok = AppendFrame(ok, Frame{Type: MsgRequest, FlowID: 9, Value: 1})
	if _, err := cEnd.Write(ok); err != nil {
		t.Fatal(err)
	}
	if f := read(); f.Type != MsgReserveBatchReply || !BatchVerdict(f.FlowID).Granted(0) {
		t.Fatalf("batch after recovery: reply %+v, want a granted verdict", f)
	}
}

// TestBatchConnDropReleasesOnce is the release-exactly-once funnel check:
// a connection dies holding batch-granted reservations, the server's
// connection-scoped release reclaims each exactly once, and the freed
// capacity is fully — and not more than fully — reusable.
func TestBatchConnDropReleasesOnce(t *testing.T) {
	const kmax = 8
	s := newServer(t, kmax)
	defer s.Close()

	// A survivor connection holds one flow throughout.
	keeper := pipeClient(t, s)
	c := ctx(t)
	if ok, _, err := keeper.Reserve(c, 100, 1); err != nil || !ok {
		t.Fatalf("keeper reserve: ok=%v err=%v", ok, err)
	}

	// The doomed connection batch-reserves 5 flows, then drops mid-life.
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	doomed := NewClient(cEnd)
	ops := make([]Frame, 5)
	for i := range ops {
		ops[i] = Frame{Type: MsgRequest, FlowID: uint64(i + 1), Value: 1}
	}
	v, _, err := doomed.ReserveBatch(c, ops)
	if err != nil || v.Count() != len(ops) {
		t.Fatalf("doomed batch: verdict %05b err=%v, want all granted", uint64(v), err)
	}
	if a := s.Active(); a != 6 {
		t.Fatalf("active = %d, want 6", a)
	}
	_ = doomed.Close()
	waitActive(t, s, 1)

	// A second doomed connection dies with a batch body half-collected:
	// nothing was dispatched, so nothing may leak or be released.
	c2End, s2End := net.Pipe()
	go s.HandleConn(s2End)
	partial := AppendFrame(nil, BatchHeader(4))
	partial = AppendFrame(partial, Frame{Type: MsgRequest, FlowID: 11, Value: 1})
	partial = AppendFrame(partial, Frame{Type: MsgRequest, FlowID: 12, Value: 1})
	if _, err := c2End.Write(partial); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	_ = c2End.Close()
	waitActive(t, s, 1)

	// Exactly kmax−1 slots must be reusable — a double release would
	// let an extra flow in, a leak would deny a fitting one.
	refill := make([]Frame, kmax-1)
	for i := range refill {
		refill[i] = Frame{Type: MsgRequest, FlowID: uint64(200 + i), Value: 1}
	}
	v, _, err = keeper.ReserveBatch(c, refill)
	if err != nil || v.Count() != kmax-1 {
		t.Fatalf("refill: %d of %d granted, err=%v — released capacity must be exactly reusable", v.Count(), kmax-1, err)
	}
	if ok, _, err := keeper.Reserve(c, 999, 1); err != nil || ok {
		t.Fatalf("reserve beyond kmax: ok=%v err=%v, want a denial", ok, err)
	}
}

// TestMuxBatchInterleaved races batched reserves, single-frame churn, and
// stats over one mux connection: FIFO batch-reply matching must never
// hand a batch verdict to a single-frame waiter or vice versa.
func TestMuxBatchInterleaved(t *testing.T) {
	const kmax = 256
	s := newServer(t, kmax)
	defer s.Close()
	m := pipeMux(t, s)
	c := ctx(t)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * 1000)
			ops := make([]Frame, 8)
			for i := 0; i < 20; i++ {
				for k := range ops {
					ops[k] = Frame{Type: MsgRequest, FlowID: base + uint64(k) + 1, Value: 1}
				}
				v, share, err := m.ReserveBatch(c, ops)
				if err != nil || v.Count() != len(ops) {
					t.Errorf("batch %d/%d: verdict %08b share %g err %v", w, i, uint64(v), share, err)
					return
				}
				if share != 1 {
					t.Errorf("batch share %g, want 1", share)
					return
				}
				for k := range ops {
					ops[k].Type = MsgTeardown
				}
				if v, _, err = m.ReserveBatch(c, ops); err != nil || v.Count() != len(ops) {
					t.Errorf("teardown batch %d/%d: verdict %08b err %v", w, i, uint64(v), err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ok, _, err := m.Reserve(c, id, 1)
				if err != nil {
					t.Errorf("single reserve %d: %v", id, err)
					return
				}
				if ok {
					if err := m.Teardown(c, id); err != nil {
						t.Errorf("single teardown %d: %v", id, err)
						return
					}
				}
			}
		}(uint64(9000 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			k, active, err := m.Stats(c)
			if err != nil || k != kmax || active < 0 || active > kmax {
				t.Errorf("stats: kmax=%d active=%d err=%v", k, active, err)
				return
			}
		}
	}()
	wg.Wait()
	if a := s.Active(); a != 0 {
		t.Fatalf("active = %d after the churn, want 0", a)
	}
}
