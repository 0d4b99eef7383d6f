package loadgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"beqos/internal/utility"
)

// pin renders a Result's deterministic content exactly: integer fields as
// they are, float fields as their IEEE-754 bits, and the occupancy
// histogram as an FNV-1a hash of its bits. Latency and Elapsed are wall
// clock and Phases is the scenario breakdown, so they are left out; any
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
			"Reissued": 954, "Anomalies": 0, "PeakLoad": 61, "UDPRetransmits": 0, "Batches": 484,
			"BatchedOps": 1635, "FinalActive": 0,
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
