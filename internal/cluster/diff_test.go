package cluster

import (
	"io"
	"math"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// TestResvMatchesOneLinkCluster drives a resv server, a one-node,
// one-link cluster's client plane and another such cluster's peer plane,
// one connection each, with one seeded sequence of single frames and batch
// bodies, and compares every reply bit for bit: the single-link server is
// the one-link case of a cluster link, and resv and the peer plane give
// one link answer. Flow IDs stay below 2^48, so on the client plane every
// request addresses pair 0 and on the peer plane link 0 under the flow ID
// as its hop key; bodies repeat flow IDs near the bound.
//
// One difference is by design and asserted, not skipped: a duplicate
// reserve at a full link is denied by resv and the peer plane, whose
// policy decides before the cell is read, while the client plane answers
// duplicate-flow, because it reads the connection's path flows first. In a
// batch body all three leave the op's bit clear, but resv counts a denial
// and the client plane an error.
func TestResvMatchesOneLinkCluster(t *testing.T) {
	const capacity, ids, seeds, steps = 8, 12, 40, 400
	rigid, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 1, 1, 1, 2, 0, -1, math.NaN(), math.Inf(1)}
	var grants, denials, knownAll uint64
	for seed := uint64(1); seed <= seeds; seed++ {
		srv, err := resv.NewServer(capacity, rigid)
		if err != nil {
			t.Fatal(err)
		}
		cl := startCluster(t, singleSpec, Config{Util: rigid, AntiEntropy: -1})
		pcl := startCluster(t, singleSpec, Config{Util: rigid, AntiEntropy: -1})
		node, owner := cl.Node(0), pcl.Node(0)
		if b := cl.Bounds()[0]; b != capacity || srv.KMax() != capacity {
			t.Fatalf("bounds: cluster %d, resv %d, want %d", b, srv.KMax(), capacity)
		}
		planes := [3]net.Conn{diffConn(t, srv.HandleConn), diffConn(t, node.HandleClientConn), diffConn(t, owner.HandlePeerConn)}

		rng := rand.New(rand.NewPCG(seed, 17))
		held := make(map[uint64]bool) // the flows every plane holds
		known := 0                    // reserves of a held flow at a full link
		// reserve accounts one reserve op of a valid rate in body order.
		reserve := func(id uint64, granted bool) {
			switch {
			case granted:
				held[id] = true
			case held[id] && len(held) == capacity:
				known++
			}
		}
		for step := 0; step < steps; step++ {
			id := 1 + rng.Uint64N(ids)
			v := values[rng.IntN(len(values))]
			var frames []resv.Frame
			switch k := rng.IntN(20); {
			case k < 7:
				frames = []resv.Frame{{Type: resv.MsgRequest, FlowID: id, Value: v}}
			case k < 10:
				frames = []resv.Frame{{Type: resv.MsgTeardown, FlowID: id}}
			case k < 11:
				frames = []resv.Frame{{Type: resv.MsgRefresh, FlowID: id}}
			case k < 12:
				frames = []resv.Frame{{Type: resv.MsgStats}}
			default:
				n := 1 + rng.IntN(8)
				frames = append(frames, resv.BatchHeader(n))
				for i := 0; i < n; i++ {
					op := resv.Frame{Type: resv.MsgRequest, FlowID: 1 + rng.Uint64N(ids), Value: 1}
					if rng.IntN(3) == 0 {
						op = resv.Frame{Type: resv.MsgTeardown, FlowID: op.FlowID}
					} else if rng.IntN(4) == 0 {
						op.Value = values[rng.IntN(len(values))]
					}
					frames = append(frames, op)
				}
			}
			r, c, p := diffRoundTrip(t, planes[0], frames), diffRoundTrip(t, planes[1], frames), diffRoundTrip(t, planes[2], frames)
			if !sameFrame(r, p) {
				t.Fatalf("seed %d step %d: %v: resv %+v, peer plane %+v", seed, step, frames, r, p)
			}

			f := frames[0]
			if f.Type == resv.MsgRequest && f.Value >= 0 && !math.IsInf(f.Value, 0) && held[id] && len(held) == capacity {
				known++
				if r.Type != resv.MsgDeny || r.FlowID != id || r.Value != capacity ||
					c.Type != resv.MsgError || c.FlowID != id || c.Value != float64(resv.ErrCodeDuplicateFlow) {
					t.Fatalf("seed %d step %d: duplicate reserve of %d at a full link: resv %+v, cluster %+v; want resv DENY %d, cluster duplicate-flow",
						seed, step, id, r, c, capacity)
				}
				continue
			}
			if !sameFrame(r, c) {
				t.Fatalf("seed %d step %d: %v: resv %+v, cluster %+v", seed, step, frames, r, c)
			}
			switch {
			case f.Type == resv.MsgRequest:
				if r.Type == resv.MsgGrant || r.Type == resv.MsgDeny {
					reserve(id, r.Type == resv.MsgGrant)
				}
			case f.Type == resv.MsgTeardown && r.Type == resv.MsgTeardownOK:
				delete(held, id)
			case f.Type == resv.MsgReserveBatch:
				v := resv.BatchVerdict(r.FlowID)
				for i, op := range frames[1:] {
					switch {
					case op.Type == resv.MsgTeardown:
						if v.Granted(i) {
							delete(held, op.FlowID)
						}
					case op.Value >= 0 && !math.IsInf(op.Value, 0):
						reserve(op.FlowID, v.Granted(i))
					}
				}
			}
			a := int64(len(held))
			if a != int64(srv.Active()) || a != node.LinkActive(0) || a != owner.LinkActive(0) {
				t.Fatalf("seed %d step %d: model holds %d flows, resv %d, cluster %d, peer plane %d",
					seed, step, a, srv.Active(), node.LinkActive(0), owner.LinkActive(0))
			}
			// A peer-plane batch reply is the body's answer alone.
			if f.Type == resv.MsgReserveBatch {
				diffNothingFollows(t, planes[2])
			}
		}

		rm, nm := srv.Metrics(), node.Metrics()
		if rm.Grants.Load() != nm.PathGrants.Load() {
			t.Fatalf("seed %d: resv granted %d, cluster %d", seed, rm.Grants.Load(), nm.PathGrants.Load())
		}
		if rm.Denials.Load() != nm.PathDenies.Load()+uint64(known) {
			t.Fatalf("seed %d: resv denied %d, cluster %d plus %d duplicates at a full link",
				seed, rm.Denials.Load(), nm.PathDenies.Load(), known)
		}
		grants, denials, knownAll = grants+rm.Grants.Load(), denials+rm.Denials.Load(), knownAll+uint64(known)
		for _, nc := range planes {
			_ = nc.Close()
		}
		waitFor(t, "the planes to drain", func() bool {
			return srv.Active() == 0 && node.LinkActive(0) == 0 && owner.LinkActive(0) == 0
		})
		srv.Close()
		cl.Close()
		pcl.Close()
	}
	t.Logf("%d grants, %d denials, %d of them duplicates at a full link", grants, denials, knownAll)
}

// diffConn serves one end of a pipe with serve and returns the other.
func diffConn(t *testing.T, serve func(net.Conn)) net.Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go serve(sEnd)
	t.Cleanup(func() { _ = cEnd.Close() })
	return cEnd
}

// diffRoundTrip writes frames in one segment and reads the first reply.
func diffRoundTrip(t *testing.T, nc net.Conn, frames []resv.Frame) resv.Frame {
	t.Helper()
	var buf []byte
	for _, f := range frames {
		buf = resv.AppendFrame(buf, f)
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	return diffRead(t, nc)
}

// diffNothingFollows checks that no frame follows the reply last read from
// nc: the reply to a stats probe must come next. (On a net.Pipe a frame
// left unread blocks the server's write, so the probe's write times out.)
func diffNothingFollows(t *testing.T, nc net.Conn) {
	t.Helper()
	if r := diffRoundTrip(t, nc, []resv.Frame{{Type: resv.MsgStats}}); r.Type != resv.MsgStatsReply {
		t.Fatalf("%+v followed the reply", r)
	}
}

// sameFrame reports whether two replies are equal bit for bit.
func sameFrame(a, b resv.Frame) bool {
	return a.Type == b.Type && a.FlowID == b.FlowID && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// diffRead reads one reply.
func diffRead(t *testing.T, nc net.Conn) resv.Frame {
	t.Helper()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	reply := make([]byte, resv.FrameSize)
	if _, err := io.ReadFull(nc, reply); err != nil {
		t.Fatalf("read: %v", err)
	}
	f, err := resv.DecodeFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
