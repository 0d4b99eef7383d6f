package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"beqos/internal/dist"
	"beqos/internal/policy"
	"beqos/internal/utility"
)

// pinHeavyTail is lognormal then Pareto holds at offered load 20: the
// sim workload's scenario shape, shortened.
const pinHeavyTail = `scenario pin-heavytail
prefill 20
warmup 5
phase lognormal 25
arrivals poisson rate=20
holding lognormal mean=1 sigma=1
phase elephants 15
arrivals poisson rate=20
holding pareto mean=1 shape=1.6
`

// pinClasses is a three-class mixture with distinct demand scales.
const pinClasses = `scenario pin-classes
prefill 15
warmup 3
class big weight=1 demand=2.5
class mid weight=2
class small weight=3 demand=0.7
phase p 30
arrivals poisson rate=20
holding exp mean=1
`

// pinHash is the FNV-1a hash of a distribution's PMF over 0..n−1, as
// IEEE-754 bits.
func pinHash(d *dist.Empirical, n int) uint64 {
	h := fnv.New64a()
	for k := 0; k < n; k++ {
		fmt.Fprintf(h, "%016x,", math.Float64bits(d.PMF(k)))
	}
	return h.Sum64()
}

// pin renders a Result exactly: integer fields as they are, float fields
// as their IEEE-754 bits, slices element by element, and the Occupancy and
// ArrivalLoad PMFs as FNV-1a hashes over every level up to one past the
// peak (an arrival may see peak+1 and be rejected). Any other field fails
// the pin until it is covered.
func pin(t *testing.T, res *Result) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	var put func(name string, f reflect.Value)
	put = func(name string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int:
			out[name] = uint64(f.Int())
		case reflect.Uint64:
			out[name] = f.Uint()
		case reflect.Float64:
			out[name] = math.Float64bits(f.Float())
		case reflect.Slice:
			for i := 0; i < f.Len(); i++ {
				put(fmt.Sprintf("%s[%d]", name, i), f.Index(i))
			}
		case reflect.Pointer:
			d, ok := f.Interface().(*dist.Empirical)
			if !ok || d == nil {
				t.Fatalf("pin: Result.%s (%s) is not covered", name, f.Type())
			}
			out[name] = pinHash(d, res.PeakOccupancy+2)
		default:
			t.Fatalf("pin: Result.%s (%s) is not covered", name, f.Kind())
		}
	}
	v := reflect.ValueOf(*res)
	for i := 0; i < v.NumField(); i++ {
		put(v.Type().Field(i).Name, v.Field(i))
	}
	return out
}

// pinConfigs are the simulator configurations whose Results are pinned:
// every policy, scoring mode and utility shape the hot loop has a branch
// for.
func pinConfigs(t *testing.T) map[string]Config {
	t.Helper()
	adaptive := utility.NewAdaptive()
	heavy := parseSpec(t, pinHeavyTail)
	mixed := parseSpec(t, simWorkloadSpec)
	classes := parseSpec(t, pinClasses)
	measured, err := policy.NewMeasured(60, 60, 55, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"reservation/heavy-tail": {
			Capacity: 20, Util: adaptive, Policy: Reservation, Workload: heavy, Seed1: 1, Seed2: 2,
		},
		"best-effort/time-average": {
			Capacity: 100, Util: adaptive, Policy: BestEffort, Workload: mixed, Seed1: 3, Seed2: 4,
		},
		"reservation/samples": {
			Capacity: 60, Util: adaptive, Policy: Reservation, Workload: mixed, Samples: 3, Seed1: 5, Seed2: 6,
		},
		"reservation/retry": {
			Capacity: 18, Util: rigidFn(t), Policy: Reservation, Workload: heavy, Samples: 1,
			Retry: &RetryConfig{MeanBackoff: 0.5, Penalty: 0.05, MaxAttempts: 4}, Seed1: 7, Seed2: 8,
		},
		"classes/per-class-utilities": {
			Capacity: 25, Util: adaptive, Classes: []utility.Function{adaptive, rigidFn(t), utility.NewAdaptive()},
			Policy: Reservation, Workload: classes, Samples: 2, Seed1: 9, Seed2: 10,
		},
		"classes/mixture": {
			Capacity: 25, Classes: []utility.Function{adaptive, rigidFn(t), adaptive},
			Policy: Reservation, Workload: classes, Seed1: 11, Seed2: 12,
		},
		"classes/shared-utility": {
			Capacity: 20, Util: adaptive, Policy: BestEffort, Workload: classes, Seed1: 13, Seed2: 14,
		},
		"reservation/admission-policy": {
			Capacity: 60, Util: adaptive, Policy: Reservation, Admission: measured, Workload: mixed,
			Samples: 2, Seed1: 15, Seed2: 16,
		},
	}
}

// simPins are the configurations' Results, pinned bit for bit.
var simPins = map[string]map[string]uint64{
	"best-effort/time-average": {
		"Admitted": 4989, "ArenaPeak": 224, "ArrivalLoad": 0x1c5b2591226bedd2,
		"AvgOccupancy": 0x4050a19b70ebe707, "BlockingRate": 0, "Events": 10491, "Flows": 4989,
		"MeanUtility": 0x3fe16a68b5f2c29c, "Occupancy": 0x58264d8612929691, "PeakOccupancy": 224,
		"PhaseAdmitted[0]": 2009, "PhaseAdmitted[1]": 2530, "PhaseAdmitted[2]": 450,
		"PhaseFlows[0]": 2009, "PhaseFlows[1]": 2530, "PhaseFlows[2]": 450, "PhaseRejected[0]": 0,
		"PhaseRejected[1]": 0, "PhaseRejected[2]": 0, "Rejected": 0, "Retries": 0,
	},
	"classes/mixture": {
		"Admitted": 518, "ArenaPeak": 26, "ArrivalLoad": 0x52dd04c590f6f759,
		"AvgOccupancy": 0x4034b294b88e6aed, "BlockingRate": 0x3fb6f20d7f533bd7, "ClassFlows[0]": 99,
		"ClassFlows[1]": 178, "ClassFlows[2]": 292, "ClassUtility[0]": 0x3fc6bff2a0048ed0,
		"ClassUtility[1]": 0x3fec0b81702e05c1, "ClassUtility[2]": 0x3fe388d850e0cf93, "Events": 1219,
		"Flows": 569, "MeanUtility": 0x3fe3c9a05e21aed6, "Occupancy": 0x9043f783ae44d381,
		"PeakOccupancy": 25, "PhaseAdmitted[0]": 518, "PhaseFlows[0]": 569, "PhaseRejected[0]": 51,
		"Rejected": 51, "Retries": 0,
	},
	"classes/per-class-utilities": {
		"Admitted": 513, "ArenaPeak": 26, "ArrivalLoad": 0x2a8ef777e7086773,
		"AvgOccupancy": 0x40326ea0c1f7751f, "BlockingRate": 0x3f994ed8175c78b3, "ClassFlows[0]": 75,
		"ClassFlows[1]": 170, "ClassFlows[2]": 281, "ClassUtility[0]": 0x3fc70ed3d5008772,
		"ClassUtility[1]": 0x3fee4e4e4e4e4e4e, "ClassUtility[2]": 0x3fe5e1b06034c89a, "Events": 1748,
		"Flows": 526, "MeanUtility": 0x3fe64e6395a26c23, "Occupancy": 0x164125db2123c5f2,
		"PeakOccupancy": 25, "PhaseAdmitted[0]": 513, "PhaseFlows[0]": 526, "PhaseRejected[0]": 13,
		"Rejected": 13, "Retries": 0,
	},
	"classes/shared-utility": {
		"Admitted": 597, "ArenaPeak": 35, "ArrivalLoad": 0xba6a944220d1a6db,
		"AvgOccupancy": 0x40353aaf3f7b1b6b, "BlockingRate": 0, "ClassFlows[0]": 99, "ClassFlows[1]": 197,
		"ClassFlows[2]": 301, "ClassUtility[0]": 0x3fc0a2303b03acf8,
		"ClassUtility[1]": 0x3fda5e267b6b41ae, "ClassUtility[2]": 0x3fe1a15ec0b48a86, "Events": 1306,
		"Flows": 597, "MeanUtility": 0x3fdbdbac46fcb2e5, "Occupancy": 0x91df43bf75583772,
		"PeakOccupancy": 35, "PhaseAdmitted[0]": 597, "PhaseFlows[0]": 597, "PhaseRejected[0]": 0,
		"Rejected": 0, "Retries": 0,
	},
	"reservation/admission-policy": {
		"Admitted": 3493, "ArenaPeak": 61, "ArrivalLoad": 0x8dcc855947866945,
		"AvgOccupancy": 0x40468c4fa52e929a, "BlockingRate": 0x3fd2f27b9d5b1c95, "Events": 12732,
		"Flows": 4962, "MeanUtility": 0x3fd8fc600639205a, "Occupancy": 0xed5fa9afe3610ca8,
		"PeakOccupancy": 60, "PhaseAdmitted[0]": 1916, "PhaseAdmitted[1]": 1074, "PhaseAdmitted[2]": 503,
		"PhaseFlows[0]": 1955, "PhaseFlows[1]": 2502, "PhaseFlows[2]": 505, "PhaseRejected[0]": 39,
		"PhaseRejected[1]": 1428, "PhaseRejected[2]": 2, "Rejected": 1469, "Retries": 0,
	},
	"reservation/heavy-tail": {
		"Admitted": 613, "ArenaPeak": 21, "ArrivalLoad": 0xee3ade7850aeb79,
		"AvgOccupancy": 0x4030a7a789c306d0, "BlockingRate": 0x3fc21b3fd21b3fd2, "Events": 1538,
		"Flows": 714, "MeanUtility": 0x3fdca72fb3fbef34, "Occupancy": 0x595dc946b580d19a,
		"PeakOccupancy": 20, "PhaseAdmitted[0]": 345, "PhaseAdmitted[1]": 268, "PhaseFlows[0]": 397,
		"PhaseFlows[1]": 317, "PhaseRejected[0]": 52, "PhaseRejected[1]": 49, "Rejected": 101,
		"Retries": 0,
	},
	"reservation/retry": {
		"Admitted": 599, "ArenaPeak": 46, "ArrivalLoad": 0xbfea4913ed5d8b1b,
		"AvgOccupancy": 0x4030832105fa66c4, "BlockingRate": 0x3fe1ed3440a86942, "Events": 2204,
		"Flows": 674, "MeanUtility": 0x3fe9fb712fdb897c, "Occupancy": 0x1668dc3cedae2271,
		"PeakOccupancy": 18, "PhaseAdmitted[0]": 345, "PhaseAdmitted[1]": 254, "PhaseFlows[0]": 396,
		"PhaseFlows[1]": 278, "PhaseRejected[0]": 51, "PhaseRejected[1]": 19, "Rejected": 70,
		"Retries": 693,
	},
	"reservation/samples": {
		"Admitted": 3572, "ArenaPeak": 61, "ArrivalLoad": 0x2b1552a8d19dda18,
		"AvgOccupancy": 0x40480eda85f88151, "BlockingRate": 0x3fd2a8c56849ed1d, "Events": 16965,
		"Flows": 5042, "MeanUtility": 0x3fd7a62d272129cd, "Occupancy": 0x4aaa0df6870ebe4b,
		"PeakOccupancy": 60, "PhaseAdmitted[0]": 1956, "PhaseAdmitted[1]": 1126, "PhaseAdmitted[2]": 490,
		"PhaseFlows[0]": 2027, "PhaseFlows[1]": 2525, "PhaseFlows[2]": 490, "PhaseRejected[0]": 71,
		"PhaseRejected[1]": 1399, "PhaseRejected[2]": 0, "Rejected": 1470, "Retries": 0,
	},
}

// TestRunPinned: every pinned configuration reproduces its Result bit for
// bit, so a change to the hot loop that moves a single float fails here.
func TestRunPinned(t *testing.T) {
	cfgs := pinConfigs(t)
	if len(cfgs) != len(simPins) {
		t.Fatalf("%d configurations, %d pins", len(cfgs), len(simPins))
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pin(t, &res), simPins[name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("run diverged from its pin:\ngot  %#v\nwant %#v", got, want)
			}
		})
	}
}
