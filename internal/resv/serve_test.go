package resv

import (
	"bytes"
	"cmp"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"testing"
	"time"

	"beqos/internal/policy"
)

// scriptConn is a net.Conn whose first Read returns all of in and whose
// later Reads return io.EOF; it records every Write.
type scriptConn struct {
	net.Conn
	in     []byte
	writes [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

func (c *scriptConn) Close() error         { return nil }
func (c *scriptConn) RemoteAddr() net.Addr { return nil }

// TestServeConnMaximalReadOneWrite: the largest read ServeConn takes,
// readBufSize/FrameSize frames, is answered by exactly one Write, even
// when batch header/breaker pairs give their frames two replies per pair.
func TestServeConnMaximalReadOneWrite(t *testing.T) {
	const frames = readBufSize / FrameSize
	const reserves, teardowns = 40, 20
	const pairs = (frames - reserves - teardowns) / 2
	if reserves+teardowns+2*pairs != frames {
		t.Fatalf("the script is %d frames, want %d", reserves+teardowns+2*pairs, frames)
	}
	s := newServer(t, reserves)
	defer s.Close()
	var in []byte
	for id := uint64(1); id <= reserves; id++ {
		in = AppendFrame(in, Frame{Type: MsgRequest, FlowID: id, Value: 1})
	}
	for id := uint64(1); id <= teardowns; id++ {
		in = AppendFrame(in, Frame{Type: MsgTeardown, FlowID: id})
	}
	for i := 0; i < pairs; i++ {
		// A header, then a frame no body may carry: the batch fails with
		// an error reply, and the breaker is answered on its own.
		in = AppendFrame(in, BatchHeader(2))
		in = AppendFrame(in, Frame{Type: MsgStats})
	}
	nc := &scriptConn{in: in}
	s.HandleConn(nc)
	if len(nc.in) != 0 {
		t.Fatalf("%d bytes left unread", len(nc.in))
	}
	if len(nc.writes) != 1 {
		t.Fatalf("the read was answered by %d writes, want 1", len(nc.writes))
	}
	replies, rest, err := DecodeFrames(nil, nc.writes[0])
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode the replies: %v (%d bytes left)", err, len(rest))
	}
	if want := reserves + teardowns + 2*pairs; len(replies) != want {
		t.Fatalf("%d replies, want %d", len(replies), want)
	}
	for i, r := range replies {
		var want MsgType
		switch {
		case i < reserves:
			want = MsgGrant
		case i < reserves+teardowns:
			want = MsgTeardownOK
		case (i-reserves-teardowns)%2 == 0:
			want = MsgError
		default:
			want = MsgStatsReply
		}
		if r.Type != want {
			t.Fatalf("reply %d is %s, want %s", i, r.Type, want)
		}
	}
	if a := s.Active(); a != 0 {
		t.Fatalf("%d flows held once the connection ended", a)
	}
}

// stripeTwin is one server of TestStripesAnswerAlike with the client ends
// of its connections.
type stripeTwin struct {
	s     *Server
	conns []net.Conn
	done  []chan struct{} // closed once HandleConn of that connection returns
}

// dial opens connection slot i to the twin's server.
func (tw *stripeTwin) dial(t *testing.T, i int) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	if err := cEnd.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tw.s.HandleConn(sEnd)
	}()
	tw.conns[i], tw.done[i] = cEnd, done
}

// drop closes connection slot i and waits until the server has released
// its flows.
func (tw *stripeTwin) drop(i int) {
	_ = tw.conns[i].Close()
	<-tw.done[i]
}

// step writes wire on connection slot i and returns the n replies.
func (tw *stripeTwin) step(t *testing.T, i int, wire []byte, n int) []byte {
	t.Helper()
	if _, err := tw.conns[i].Write(wire); err != nil {
		t.Fatalf("shards %d: write: %v", tw.s.Shards(), err)
	}
	replies := make([]byte, n*FrameSize)
	if _, err := io.ReadFull(tw.conns[i], replies); err != nil {
		t.Fatalf("shards %d: read %d replies: %v", tw.s.Shards(), n, err)
	}
	return replies
}

// state is what the twin's server counted and holds: its counters, and
// its held flows grouped by owning connection, each group sorted and the
// groups in order of their first flow.
func (tw *stripeTwin) state() ([]uint64, [][]uint64) {
	m := tw.s.Metrics()
	counts := []uint64{
		m.Reserves.Load(), m.Grants.Load(), m.Denials.Load(), m.Teardowns.Load(),
		m.Releases.Load(), m.Expiries.Load(), m.Refreshes.Load(), m.Stats.Load(),
		m.Errors.Load(), m.DupReserves.Load(), uint64(tw.s.Active()),
	}
	byConn := map[*conn][]uint64{}
	for i := range tw.s.shards {
		sh := &tw.s.shards[i]
		sh.Lock()
		sh.Each(func(h *Hold[*conn]) { byConn[h.Val] = append(byConn[h.Val], h.slot.key) })
		sh.Unlock()
	}
	var held [][]uint64
	for _, ids := range byConn {
		slices.Sort(ids)
		held = append(held, ids)
	}
	slices.SortFunc(held, func(a, b []uint64) int { return cmp.Compare(a[0], b[0]) })
	return counts, held
}

// TestStripesAnswerAlike serves one seeded schedule, a step at a time, to
// a one-stripe and a sixteen-stripe server: reads of single frames
// (reserves, teardowns, refreshes under a TTL, stats) and batch bodies,
// some broken off, over three connections, with flow IDs drawn from a
// small range so that duplicate and unknown flows and denials are common,
// and with connections dropped and redialled. After every step the two
// servers' replies, counters and held flows are identical.
func TestStripesAnswerAlike(t *testing.T) {
	const kmax, ids, nconns, steps = 8, 16, 3, 1000
	var twins [2]*stripeTwin
	for k, nshards := range []int{1, 16} {
		pol, err := policy.NewCounting(kmax, kmax)
		if err != nil {
			t.Fatal(err)
		}
		// No flow expires within the test: its refreshes re-arm timers a
		// TTL out.
		s, err := buildServer(pol, time.Hour, nshards)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tw := &stripeTwin{s: s, conns: make([]net.Conn, nconns), done: make([]chan struct{}, nconns)}
		for i := range tw.conns {
			tw.dial(t, i)
		}
		twins[k] = tw
	}
	rng := rand.New(rand.NewPCG(37, 16))
	id := func() uint64 { return 1 + rng.Uint64N(ids) }
	op := func() Frame {
		if rng.IntN(3) == 0 {
			return Frame{Type: MsgTeardown, FlowID: id()}
		}
		return Frame{Type: MsgRequest, FlowID: id(), Value: 1}
	}
	drops := 0
	for step := 0; step < steps; step++ {
		slot := rng.IntN(nconns)
		if rng.IntN(20) == 0 {
			for _, tw := range twins {
				tw.drop(slot)
				tw.dial(t, slot)
			}
			drops++
		} else {
			var wire []byte
			replies := 0
			for n := 1 + rng.IntN(4); n > 0; n-- {
				replies++
				switch k := rng.IntN(10); {
				case k < 3:
					wire = AppendFrame(wire, Frame{Type: MsgRequest, FlowID: id(), Value: 1})
				case k < 5:
					wire = AppendFrame(wire, Frame{Type: MsgTeardown, FlowID: id()})
				case k < 7:
					wire = AppendFrame(wire, Frame{Type: MsgRefresh, FlowID: id()})
				case k < 8:
					wire = AppendFrame(wire, Frame{Type: MsgStats})
				case k < 9:
					body := 1 + rng.IntN(6)
					wire = AppendFrame(wire, BatchHeader(body))
					for j := 0; j < body; j++ {
						wire = AppendFrame(wire, op())
					}
				default:
					// A body broken off by a stats frame: an error reply
					// for the body, a stats reply for the breaker.
					body := 1 + rng.IntN(4)
					wire = AppendFrame(wire, BatchHeader(body+1))
					for j := 0; j < body; j++ {
						wire = AppendFrame(wire, op())
					}
					wire = AppendFrame(wire, Frame{Type: MsgStats})
					replies++
				}
			}
			one, sixteen := twins[0].step(t, slot, wire, replies), twins[1].step(t, slot, wire, replies)
			if !bytes.Equal(one, sixteen) {
				a, _, _ := DecodeFrames(nil, one)
				b, _, _ := DecodeFrames(nil, sixteen)
				t.Fatalf("step %d: replies differ\n 1 shard:   %+v\n16 shards: %+v", step, a, b)
			}
		}
		c1, h1 := twins[0].state()
		c16, h16 := twins[1].state()
		if !slices.Equal(c1, c16) {
			t.Fatalf("step %d: counters differ: 1 shard %v, 16 shards %v", step, c1, c16)
		}
		if !slices.EqualFunc(h1, h16, slices.Equal[[]uint64]) {
			t.Fatalf("step %d: held flows differ: 1 shard %v, 16 shards %v", step, h1, h16)
		}
	}
	if drops == 0 {
		t.Fatal("the schedule dropped no connection")
	}
	for _, tw := range twins {
		for i := range tw.conns {
			tw.drop(i)
		}
		if a := tw.s.Active(); a != 0 {
			t.Fatalf("shards %d: %d flows held with every connection dropped", tw.s.Shards(), a)
		}
	}
	m := twins[0].s.Metrics()
	for name, n := range map[string]uint64{
		"grants": m.Grants.Load(), "denials": m.Denials.Load(), "teardowns": m.Teardowns.Load(),
		"releases": m.Releases.Load(), "refreshes": m.Refreshes.Load(), "stats": m.Stats.Load(), "errors": m.Errors.Load(),
	} {
		if n == 0 {
			t.Errorf("the schedule counted no %s", name)
		}
	}
}
