package loadgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"beqos/internal/resv"
	"beqos/internal/utility"
)

// pin renders a Result's deterministic content exactly: integer fields as
// they are, float fields as their IEEE-754 bits, and the occupancy
// histogram as an FNV-1a hash of its bits. Latency and Elapsed are wall
// clock, and Phases is pinned by pinPhases, so they are left out; any
// other field must be covered, so a new one fails the pin until added.
func pin(t *testing.T, res *Result) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	v := reflect.ValueOf(*res)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		f := v.Field(i)
		switch {
		case name == "Latency" || name == "Elapsed" || name == "Phases":
		case f.Kind() == reflect.Int:
			out[name] = uint64(f.Int())
		case f.Kind() == reflect.Float64:
			out[name] = math.Float64bits(f.Float())
		case name == "OccupancyWeights":
			h := fnv.New64a()
			for _, w := range res.OccupancyWeights {
				fmt.Fprintf(h, "%016x,", math.Float64bits(w))
			}
			out[name] = h.Sum64()
		default:
			t.Fatalf("pin: Result.%s (%s) is not covered", name, f.Kind())
		}
	}
	return out
}

// flagPins are the deterministic Results of three flag-style harness runs
// (stationary Poisson arrivals, exponential holds, a prefill of round(k̄)
// flows, warmup 5·hold unless set), pinned from the harness's original
// built-in Poisson pump.
var flagPins = []struct {
	name                         string
	capacity                     float64
	rigid                        bool
	rate, hold, duration, warmup float64
	batch, dropEvery             int
	seed1, seed2                 uint64
	want                         map[string]uint64
}{
	{
		name: "flagless", capacity: 100, rate: 100, hold: 1, duration: 80, seed1: 21, seed2: 22,
		want: map[string]uint64{
			"KMax": 100, "Flows": 7980, "FirstDenied": 4334, "Attempts": 12631, "Denied": 4425,
			"Grants": 8206, "Teardowns": 8206, "Retries": 0, "Drops": 0, "Reconnects": 0,
			"Reissued": 0, "Anomalies": 0, "PeakLoad": 136, "UDPRetransmits": 0, "Batches": 0,
			"BatchedOps": 0, "FinalActive": 0,
			"DenyRate": 0x3fe161238b7c1612, "OverloadFraction": 0x3fe02ad267da9e12,
			"MeanUtility": 0x3fdd2e4ee22f382c, "MeasuredMeanLoad": 0x405933b8614f459b,
			"OverloadSigma": 0x3fb312e8cc908eb6, "DenySigma": 0x3fb30f2d63264849,
			"UtilitySigma": 0x3f7f51802a18de37, "LoadSigma": 0x3ffaf1143e310995,
			"OccupancyWeights": 0xc909f82df5d8623d,
		},
	},
	{
		name: "batched-drops", capacity: 40, rate: 20, hold: 2, duration: 30, batch: 8, dropEvery: 7, seed1: 5, seed2: 6,
		want: map[string]uint64{
			"KMax": 40, "Flows": 582, "FirstDenied": 263, "Attempts": 2149, "Denied": 417,
			"Grants": 1732, "Teardowns": 673, "Retries": 0, "Drops": 105, "Reconnects": 105,
			"Reissued": 954, "Anomalies": 0, "PeakLoad": 61, "UDPRetransmits": 0, "Batches": 459,
			"BatchedOps": 1610, "FinalActive": 0,
			"DenyRate": 0x3fdcebc42dbee67d, "OverloadFraction": 0x3fd98e16caf025a0,
			"MeanUtility": 0x3fdced64c88fd509, "MeasuredMeanLoad": 0x404449d12c80f77c,
			"OverloadSigma": 0x3fb9d8c962a38eef, "DenySigma": 0x3fba0150fddb3174,
			"UtilitySigma": 0x3f91006afd45b165, "LoadSigma": 0x3ffb169445d2b62f,
			"OccupancyWeights": 0x2daa5060a5871df2,
		},
	},
	{
		name: "rigid-warmup", capacity: 8, rigid: true, rate: 7.3, hold: 0.9, duration: 50, warmup: 3, seed1: 9, seed2: 10,
		want: map[string]uint64{
			"KMax": 8, "Flows": 369, "FirstDenied": 109, "Attempts": 477, "Denied": 111,
			"Grants": 366, "Teardowns": 366, "Retries": 0, "Drops": 0, "Reconnects": 0,
			"Reissued": 0, "Anomalies": 0, "PeakLoad": 16, "UDPRetransmits": 0, "Batches": 0,
			"BatchedOps": 0, "FinalActive": 0,
			"DenyRate": 0x3fd2e7b7d926283d, "OverloadFraction": 0x3fc80ac0080aa6c5,
			"MeanUtility": 0x3fedfaff19e35cc2, "MeasuredMeanLoad": 0x4019b5d528a6063a,
			"OverloadSigma": 0x3fa1bd6e132654e3, "DenySigma": 0x3fab0c951e049f37,
			"UtilitySigma": 0x3f8ab0e2d0cafce4, "LoadSigma": 0x3fd2f4b296af70ef,
			"OccupancyWeights": 0xf63015701fe11c7b,
		},
	},
}

// TestFlagRunsPinned: flag-style runs, compiled by Stationary, reproduce
// the pinned Results bit for bit.
func TestFlagRunsPinned(t *testing.T) {
	for _, tc := range flagPins {
		t.Run(tc.name, func(t *testing.T) {
			var util utility.Function = utility.NewAdaptive()
			if tc.rigid {
				r, err := utility.NewRigid(1)
				if err != nil {
					t.Fatal(err)
				}
				util = r
			}
			res, err := Run(Config{
				Server:    newServer(t, tc.capacity, util),
				Capacity:  tc.capacity,
				Util:      util,
				Workload:  stationary(t, tc.rate, tc.hold, tc.duration, tc.warmup),
				Batch:     tc.batch,
				DropEvery: tc.dropEvery,
				Seed1:     tc.seed1, Seed2: tc.seed2,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := pin(t, res)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("run diverged from its pin:\ngot  %v\nwant %v", got, tc.want)
			}
		})
	}
}

// pinPhases renders a Result's per-phase breakdown exactly, as pin renders
// the run: for each phase, keyed by its index and name, an FNV-1a hash of
// its fields in order, integers as they are and floats as their IEEE-754
// bits. A field of any other kind fails the pin until covered.
func pinPhases(t *testing.T, res *Result) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for p, ps := range res.Phases {
		h := fnv.New64a()
		v := reflect.ValueOf(ps)
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			f := v.Field(i)
			switch {
			case name == "Name":
			case f.Kind() == reflect.Int:
				fmt.Fprintf(h, "%s=%d,", name, f.Int())
			case f.Kind() == reflect.Float64:
				fmt.Fprintf(h, "%s=%016x,", name, math.Float64bits(f.Float()))
			default:
				t.Fatalf("pinPhases: PhaseStats.%s (%s) is not covered", name, f.Kind())
			}
		}
		out[fmt.Sprintf("%d %s", p, ps.Name)] = h.Sum64()
	}
	return out
}

// phasePins are the per-phase breakdowns of two multi-phase runs, pinned
// from the harness that measured the run and its phases with two separate
// accumulators: flashSpec as TestCrossCheckWorkload runs it, and
// specs/flashcrowd.spec with batch bodies and connection drops.
var phasePins = []struct {
	name             string
	spec             string // a file under specs/; "" runs flashSpec
	capacity         float64
	batch, dropEvery int
	seed1, seed2     uint64
	want             map[string]uint64
}{
	{
		name: "flash", capacity: 65, seed1: 71, seed2: 72,
		want: map[string]uint64{
			"0 calm": 0x31a9b72bf9a26735, "1 crowd": 0xe66f759d8f92d724, "2 recovery": 0x15e44579eb9c1385,
		},
	},
	{
		name: "flashcrowd-batched-drops", spec: "flashcrowd.spec", capacity: 100, batch: 8, dropEvery: 7, seed1: 1, seed2: 2,
		want: map[string]uint64{
			"0 calm": 0xe33cf754dda3c455, "1 crowd": 0x64899fb320446851, "2 recovery": 0x5b4998f5abc0d148,
		},
	},
}

// TestPhasesPinned: multi-phase runs reproduce their pinned per-phase
// breakdowns bit for bit, the only values the oracle checks on a
// non-stationary scenario.
func TestPhasesPinned(t *testing.T) {
	for _, tc := range phasePins {
		t.Run(tc.name, func(t *testing.T) {
			scn := parseSpec(t, flashSpec)
			if tc.spec != "" {
				scn = loadSpecFile(t, filepath.Join("..", "..", "specs", tc.spec))
			}
			util := utility.NewAdaptive()
			res, err := Run(Config{
				Server:    newServer(t, tc.capacity, util),
				Capacity:  tc.capacity,
				Util:      util,
				Workload:  scn,
				Batch:     tc.batch,
				DropEvery: tc.dropEvery,
				Seed1:     tc.seed1, Seed2: tc.seed2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := pinPhases(t, res); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("phases diverged from their pin:\ngot  %v\nwant %v", got, tc.want)
			}
		})
	}
}

// recordingConn is the server end of a connection that keeps a copy of
// every byte the server reads: the client's side of the conversation.
type recordingConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *[]byte
}

func (c recordingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	*c.buf = append(*c.buf, b[:n]...)
	c.mu.Unlock()
	return n, err
}

// TestLoneOpsTravelAsSingleFrames runs the flag pins against a TCP server
// that records what each connection sends, and decodes it: every
// multi-reserve body carries 2..Batch ops (a lone op, including a group's
// last, is a single frame), the bodies on the wire are exactly the ones
// Result.Batches and Result.BatchedOps count, and a run without Batch
// sends no body at all. The remote runs must also reproduce the pins.
func TestLoneOpsTravelAsSingleFrames(t *testing.T) {
	for _, tc := range flagPins {
		t.Run(tc.name, func(t *testing.T) {
			var util utility.Function = utility.NewAdaptive()
			if tc.rigid {
				r, err := utility.NewRigid(1)
				if err != nil {
					t.Fatal(err)
				}
				util = r
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			srv := newServer(t, tc.capacity, util)
			var mu sync.Mutex
			var streams []*[]byte
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					buf := new([]byte)
					mu.Lock()
					streams = append(streams, buf)
					mu.Unlock()
					go srv.HandleConn(recordingConn{Conn: nc, mu: &mu, buf: buf})
				}
			}()
			res, err := Run(Config{
				Addr:      ln.Addr().String(),
				Capacity:  tc.capacity,
				Util:      util,
				Workload:  stationary(t, tc.rate, tc.hold, tc.duration, tc.warmup),
				Batch:     tc.batch,
				DropEvery: tc.dropEvery,
				Seed1:     tc.seed1, Seed2: tc.seed2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := pin(t, res); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("remote run diverged from its pin:\ngot  %v\nwant %v", got, tc.want)
			}

			// Every byte was read before the server answered it, and Run
			// waits for every answer, so the streams are complete.
			mu.Lock()
			defer mu.Unlock()
			bodies, ops := 0, 0
			for _, buf := range streams {
				frames, rest, err := resv.DecodeFrames(nil, *buf)
				if err != nil || len(rest) != 0 {
					t.Fatalf("client stream does not decode: %v (%d bytes left)", err, len(rest))
				}
				for j := 0; j < len(frames); j++ {
					if frames[j].Type != resv.MsgReserveBatch {
						continue
					}
					n := int(frames[j].FlowID)
					if n < 2 || n > tc.batch {
						t.Errorf("body of %d ops on the wire, want 2..%d", n, tc.batch)
					}
					bodies++
					ops += n
					j += n
				}
			}
			if bodies != res.Batches || ops != res.BatchedOps {
				t.Errorf("wire carried %d bodies of %d ops, Result counts %d of %d",
					bodies, ops, res.Batches, res.BatchedOps)
			}
			if tc.batch < 2 && bodies != 0 {
				t.Errorf("single-frame run sent %d bodies", bodies)
			}
		})
	}
}
