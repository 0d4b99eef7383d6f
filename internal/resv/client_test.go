package resv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipePeer connects a client to the far end of a net.Pipe, which the test
// serves by hand.
func pipePeer(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	c := NewClient(cEnd)
	t.Cleanup(func() {
		_ = c.Close()
		_ = sEnd.Close()
	})
	return c, sEnd
}

// expectFrame reads the next frame from the hand-served end of a pipe and
// checks its type and flow.
func expectFrame(peer net.Conn, typ MsgType, flow uint64) error {
	f, err := ReadFrame(peer)
	if err == nil && (f.Type != typ || f.FlowID != flow) {
		err = fmt.Errorf("peer read %s flow %d, want %s flow %d", f.Type, f.FlowID, typ, flow)
	}
	return err
}

// within waits up to two seconds for a hand-served peer's step to report.
func within(t *testing.T, step <-chan error, what string) {
	t.Helper()
	select {
	case err := <-step:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
}

// TestClientStaleReplySkipped abandons a Reserve(7) whose frame reached
// the peer, then tears flow 7 down. The peer answers both only after the
// teardown arrives, the late GRANT first: the teardown must take its own
// TEARDOWN-OK, not the GRANT meant for the abandoned call.
func TestClientStaleReplySkipped(t *testing.T) {
	c, peer := pipePeer(t)
	served := make(chan error, 1)
	go func() {
		err := expectFrame(peer, MsgRequest, 7)
		if err == nil {
			err = expectFrame(peer, MsgTeardown, 7)
		}
		if err == nil {
			buf := AppendFrame(nil, Frame{Type: MsgGrant, FlowID: 7, Value: 1})
			_, err = peer.Write(AppendFrame(buf, Frame{Type: MsgTeardownOK, FlowID: 7}))
		}
		served <- err
	}()
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := c.Reserve(short, 7, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("reserve with an unanswered request: err = %v, want the context's deadline", err)
	}
	if err := c.Teardown(ctx(t), 7); err != nil {
		t.Fatalf("teardown after an abandoned reserve: %v", err)
	}
	within(t, served, "peer")
}

// TestClientAbandonedCallNoWaiter abandons a call whose frame went out
// while no other call waits. The peer serves like the resv server, one
// request and then its reply before the next read, so an unread reply
// blocks it: the client must read that reply with nobody waiting for it,
// and a later call on the same connection must complete.
func TestClientAbandonedCallNoWaiter(t *testing.T) {
	c, peer := pipePeer(t)
	read, release, replied, served := make(chan error, 1), make(chan struct{}), make(chan error, 1), make(chan error, 1)
	go func() {
		err := expectFrame(peer, MsgRequest, 1)
		read <- err
		if err != nil {
			return
		}
		<-release
		_, err = peer.Write(AppendFrame(nil, Frame{Type: MsgGrant, FlowID: 1, Value: 1}))
		replied <- err
		if err == nil {
			err = expectFrame(peer, MsgRequest, 2)
		}
		if err == nil {
			_, err = peer.Write(AppendFrame(nil, Frame{Type: MsgGrant, FlowID: 2, Value: 1}))
		}
		served <- err
	}()
	cctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, _, err := c.Reserve(cctx, 1, 1)
		if !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("canceled reserve: err = %v, want context.Canceled", err)
		} else {
			err = nil
		}
		abandoned <- err
	}()
	within(t, read, "peer reading the first request")
	cancel()
	within(t, abandoned, "abandoning the first call")
	close(release)
	within(t, replied, "peer writing the abandoned call's reply")
	if ok, _, err := c.Reserve(ctx(t), 2, 1); err != nil || !ok {
		t.Fatalf("reserve after an abandoned call: ok=%v err=%v", ok, err)
	}
	within(t, served, "peer")
}

// TestClientPostLeavesBusyWrite: a frame posted while a call's write is in
// progress is dropped, not left to that writer. The peer answers the call
// before it reads on, as a resv server on a net.Pipe does, so a writer
// handed the posted frame would wait on the peer while the peer waits for
// the writer to read its reply.
func TestClientPostLeavesBusyWrite(t *testing.T) {
	c, peer := pipePeer(t)
	read, served, reserved := make(chan struct{}), make(chan error, 1), make(chan error, 1)
	go func() {
		<-read
		err := expectFrame(peer, MsgRequest, 1)
		if err == nil {
			_, err = peer.Write(AppendFrame(nil, Frame{Type: MsgGrant, FlowID: 1, Value: 1}))
		}
		served <- err
	}()
	cctx := ctx(t)
	go func() {
		ok, _, err := c.Reserve(cctx, 1, 1)
		if err == nil && !ok {
			err = errors.New("reserve denied")
		}
		reserved <- err
	}()
	// The peer reads nothing until read closes, so the reserve's write
	// stays in progress.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		writing := c.writing
		c.mu.Unlock()
		if writing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the reserve never began its write")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := c.Post(Frame{Type: MsgGossip, FlowID: 1 << 48, Value: 3})
	close(read)
	if err != nil || queued {
		t.Fatalf("post during a write: queued=%v err=%v, want the frame dropped", queued, err)
	}
	within(t, served, "peer")
	within(t, reserved, "reserve")
}

// TestClientRoundTripZeroAlloc pins a depth-1 round trip at zero
// allocations, client and server together: reserve + teardown over
// net.Pipe, and a datagram reserve against a stub peer that answers
// without allocating.
func TestClientRoundTripZeroAlloc(t *testing.T) {
	bg := context.Background()
	t.Run("pipe", func(t *testing.T) {
		c := pipeClient(t, newServer(t, 4))
		allocs := testing.AllocsPerRun(200, func() {
			if ok, _, err := c.Reserve(bg, 1, 1); err != nil || !ok {
				t.Fatalf("reserve: ok=%v err=%v", ok, err)
			}
			if err := c.Teardown(bg, 1); err != nil {
				t.Fatalf("teardown: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("reserve + teardown over net.Pipe: %v allocs/op, want 0", allocs)
		}
	})
	t.Run("udp", func(t *testing.T) {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		go func() {
			var in, out [FrameSize]byte
			for {
				n, addr, err := pc.ReadFromUDPAddrPort(in[:])
				if err != nil {
					return
				}
				f, err := DecodeDatagram(in[:n])
				if err != nil {
					continue
				}
				putFrame(&out, Frame{Type: MsgGrant, FlowID: f.FlowID, Value: 1})
				if _, err := pc.WriteToUDPAddrPort(out[:], addr); err != nil {
					return
				}
			}
		}()
		c, err := DialUDP(bg, pc.LocalAddr().String(), UDPConfig{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		allocs := testing.AllocsPerRun(200, func() {
			if ok, _, err := c.Reserve(bg, 1, 1); err != nil || !ok {
				t.Fatalf("reserve: ok=%v err=%v", ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("datagram reserve: %v allocs/op, want 0", allocs)
		}
	})
}

// TestClientSharedConn soaks one net.Pipe client with 16 goroutines
// mixing reserve, teardown, refresh, stats and batches, a third of the
// calls under contexts that expire or are canceled mid-call. Every reply
// must answer its own op, a call that fails must fail with its context's
// error, the books must balance once each in-doubt flow is torn down, and
// Close must leave none of the client's goroutines behind.
func TestClientSharedConn(t *testing.T) {
	const (
		workers = 16
		rounds  = 200
		batchN  = 4
		kmax    = workers * (1 + batchN)
	)
	s := newServer(t, kmax)
	defer s.Close()
	c := pipeClient(t, s)
	good := ctx(t)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			id := uint64(w)<<16 | 1
			batch := make([]Frame, batchN)
			for i := 0; i < rounds; i++ {
				cctx, cancel := good, context.CancelFunc(func() {})
				if i%3 == 0 {
					// Expire or cancel somewhere between before the send
					// and after the reply.
					d := time.Duration(rng.IntN(200)) * time.Microsecond
					if rng.IntN(2) == 0 {
						cctx, cancel = context.WithTimeout(good, d)
					} else {
						cctx, cancel = context.WithCancel(good)
						time.AfterFunc(d, cancel)
					}
				}
				if err := sharedConnRound(c, cctx, good, kmax, i, id, batch); err != nil {
					t.Errorf("worker %d round %d: %v", w, i, err)
					cancel()
					return
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if a := s.Active(); a != 0 {
		t.Errorf("active = %d after every flow was torn down, want 0", a)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	noClientGoroutine(t, "after Close")
}

// noClientGoroutine fails the test unless, within two seconds, no
// goroutine runs the client's code.
func noClientGoroutine(t *testing.T, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(buf, []byte("resv.(*Client)")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client goroutines left %s:\n%s", when, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientPostStartsNoReader: Post only writes, so once a posted frame
// and a round trip are done no goroutine runs the client's code: the
// caller read its own reply.
func TestClientPostStartsNoReader(t *testing.T) {
	c, peer := pipePeer(t)
	served := make(chan error, 1)
	go func() {
		err := expectFrame(peer, MsgGossip, 1<<48)
		if err == nil {
			err = expectFrame(peer, MsgRequest, 1)
		}
		if err == nil {
			_, err = peer.Write(AppendFrame(nil, Frame{Type: MsgGrant, FlowID: 1, Value: 1}))
		}
		served <- err
	}()
	if queued, err := c.Post(Frame{Type: MsgGossip, FlowID: 1 << 48, Value: 3}); err != nil || !queued {
		t.Fatalf("post: queued=%v err=%v", queued, err)
	}
	if ok, _, err := c.Reserve(ctx(t), 1, 1); err != nil || !ok {
		t.Fatalf("reserve after a post: ok=%v err=%v", ok, err)
	}
	within(t, served, "peer")
	noClientGoroutine(t, "after a post and a round trip")
}

// sharedConnRound runs one of TestClientSharedConn's operation mixes under
// cctx, checking each reply against its op. A call cctx ends has an
// unknown effect, so the round then tears its flows down under good,
// where "unknown flow" is an answer too.
func sharedConnRound(c *Client, cctx, good context.Context, kmax, i int, id uint64, batch []Frame) error {
	// expired passes a failure cctx explains, and returns any other.
	expired := func(err error) error {
		if cctx != good && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			return nil
		}
		return err
	}
	settle := func(id uint64) error {
		err := c.Teardown(good, id)
		if err != nil && !strings.HasSuffix(err.Error(), fmt.Sprintf("server error code %d", ErrCodeUnknownFlow)) {
			return err
		}
		return nil
	}
	switch i % 4 {
	case 0: // reserve, refresh, teardown
		ok, share, err := c.Reserve(cctx, id, 1)
		if err != nil {
			if err := expired(err); err != nil {
				return err
			}
			return settle(id)
		}
		if !ok || share != 1 {
			return fmt.Errorf("reserve on a link with room: granted=%v share=%g", ok, share)
		}
		if ttl, err := c.Refresh(cctx, id); err != nil {
			if err := expired(err); err != nil {
				return err
			}
		} else if ttl != 0 {
			return fmt.Errorf("refresh on a server without TTL: TTL %v", ttl)
		}
		if err := c.Teardown(cctx, id); err != nil {
			if err := expired(err); err != nil {
				return err
			}
			return settle(id)
		}
	case 1, 3:
		k, active, err := c.Stats(cctx)
		if err != nil {
			return expired(err)
		}
		if k != kmax || active < 0 || active > kmax {
			return fmt.Errorf("stats = (%d, %d), want kmax %d and active in [0, %d]", k, active, kmax, kmax)
		}
	case 2: // a batch of reserves, then a batch of teardowns
		for k := range batch {
			batch[k] = Frame{Type: MsgRequest, FlowID: id + 1 + uint64(k), Value: 1}
		}
		v, share, err := c.ReserveBatch(cctx, batch)
		if err == nil && (v.Count() != len(batch) || share != 1) {
			return fmt.Errorf("batch on a link with room: verdict %04b share %g", uint64(v), share)
		}
		if err := expired(err); err != nil {
			return err
		}
		inDoubt := err != nil
		for k := range batch {
			batch[k].Type = MsgTeardown
		}
		v, _, err = c.ReserveBatch(good, batch)
		if err != nil {
			return err
		}
		if !inDoubt && v.Count() != len(batch) {
			return fmt.Errorf("teardown batch after a granted one: verdict %04b", uint64(v))
		}
	}
	return nil
}
