package cluster

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// TestServeConnFraming runs the same frame sequences through the resv
// server's stream plane and a cluster node's client plane — both served
// by resv.Lifecycle.ServeConn — and checks that they answer with the same
// reply types in the same order. Flow IDs stay below 2^48, so on the cluster
// plane every request addresses pair 0. Each segment is one Write on a
// net.Pipe, which returns only once the server has read all of it, so a
// case's segments reach the serving loop as separate reads. A stats probe
// follows every case, so a stray extra reply shows up as a type mismatch.
func TestServeConnFraming(t *testing.T) {
	req := func(id uint64) resv.Frame { return resv.Frame{Type: resv.MsgRequest, FlowID: id, Value: 1} }
	stats := resv.Frame{Type: resv.MsgStats}
	cases := []struct {
		name     string
		segments [][]resv.Frame
		want     []resv.MsgType
	}{
		{
			name:     "batch body split across reads",
			segments: [][]resv.Frame{{resv.BatchHeader(2), req(1)}, {req(2)}},
			want:     []resv.MsgType{resv.MsgReserveBatchReply},
		},
		{
			name:     "bad batch header",
			segments: [][]resv.Frame{{{Type: resv.MsgReserveBatch, FlowID: resv.MaxBatch + 1}}, {stats}},
			want:     []resv.MsgType{resv.MsgError, resv.MsgStatsReply},
		},
		{
			name:     "illegal frame mid-body",
			segments: [][]resv.Frame{{resv.BatchHeader(3), req(1), stats}, {resv.BatchHeader(1), req(1)}},
			want:     []resv.MsgType{resv.MsgError, resv.MsgStatsReply, resv.MsgReserveBatchReply},
		},
		{
			name:     "gossip frame",
			segments: [][]resv.Frame{{{Type: resv.MsgGossip, FlowID: 1, Value: 0}, stats}},
			want:     []resv.MsgType{resv.MsgError, resv.MsgStatsReply},
		},
	}

	rigid, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := resv.NewServer(8, rigid)
	if err != nil {
		t.Fatal(err)
	}
	node := startCluster(t, "node a\nlink l a 8\npath p l\npair x a a p\n", Config{AntiEntropy: -1}).Node(0)
	planes := []struct {
		name  string
		serve func(net.Conn)
	}{
		{"resv", srv.HandleConn},
		{"cluster", node.HandleClientConn},
	}

	for _, tc := range cases {
		for _, pl := range planes {
			t.Run(tc.name+"/"+pl.name, func(t *testing.T) {
				want := append(tc.want[:len(tc.want):len(tc.want)], resv.MsgStatsReply)
				segments := append(tc.segments[:len(tc.segments):len(tc.segments)], []resv.Frame{stats})
				cEnd, sEnd := net.Pipe()
				served := make(chan struct{})
				go func() {
					pl.serve(sEnd)
					close(served)
				}()
				defer func() {
					_ = cEnd.Close()
					<-served
				}()
				_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
				// Write from a goroutine: the server's replies to one segment
				// block its next read until they are read below.
				wrote := make(chan error, 1)
				go func() {
					for _, seg := range segments {
						var buf []byte
						for _, f := range seg {
							buf = resv.AppendFrame(buf, f)
						}
						if _, err := cEnd.Write(buf); err != nil {
							wrote <- err
							return
						}
					}
					wrote <- nil
				}()
				buf := make([]byte, resv.FrameSize)
				for i, w := range want {
					if _, err := io.ReadFull(cEnd, buf); err != nil {
						t.Fatalf("reply %d: %v", i, err)
					}
					f, err := resv.DecodeFrame(buf)
					if err != nil {
						t.Fatal(err)
					}
					if f.Type != w {
						t.Fatalf("reply %d is %s (%+v), want %s", i, f.Type, f, w)
					}
				}
				if err := <-wrote; err != nil {
					t.Fatalf("write: %v", err)
				}
			})
		}
	}
}

// slowLog is a Logf whose calls take 10 ms. It counts the calls in flight,
// and the calls that start once closed is set.
type slowLog struct {
	calls, inFlight, late atomic.Int32
	closed                atomic.Bool
}

func (l *slowLog) logf(string, ...interface{}) {
	l.calls.Add(1)
	// In flight before the check: a call starting after Close returned is
	// either in flight when the test looks or sees closed.
	l.inFlight.Add(1)
	if l.closed.Load() {
		l.late.Add(1)
	}
	time.Sleep(10 * time.Millisecond)
	l.inFlight.Add(-1)
}

// TestCloseWaitsForConnLog: the line a node logs when a connection's
// serving ends, on either plane, is part of the connection's release, so
// Close returns only once it is written: no Logf call is in flight when
// Close returns, and none starts after.
func TestCloseWaitsForConnLog(t *testing.T) {
	cl, err := New(Config{Topology: mustTopo(t, "node a\nlink l a 8\npath p l\npair x a a p\n"), AntiEntropy: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	n := cl.Node(0)
	var log slowLog
	n.Logf = log.logf
	cl.Start()
	var wg sync.WaitGroup
	for _, serve := range []func(net.Conn){n.HandleClientConn, n.HandlePeerConn, n.HandleClientConn, n.HandlePeerConn} {
		cEnd, sEnd := net.Pipe()
		defer func() { _ = cEnd.Close() }()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(sEnd)
		}()
		// A round trip, so the connection is being served when Close runs.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, _, err := resv.NewClient(cEnd).Stats(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	log.closed.Store(true)
	if k := log.inFlight.Load(); k != 0 {
		t.Fatalf("Close returned with %d log calls in flight", k)
	}
	wg.Wait()
	if k := log.late.Load(); k != 0 {
		t.Fatalf("%d log calls started after Close returned", k)
	}
	if k := log.calls.Load(); k < 4 {
		t.Fatalf("%d log calls for 4 connections closed under the node", k)
	}
}
