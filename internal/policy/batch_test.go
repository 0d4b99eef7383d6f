package policy

import (
	"sync"
	"sync/atomic"
	"testing"
)

// batchCase describes one policy under the batch-boundary harness: the
// policy, the rate and class its requests carry, and the effective
// admission bound for that (rate, class) pair.
type batchCase struct {
	name  string
	pol   Policy
	rate  float64
	class uint8
	bound int
}

// batchCases builds the five built-ins, each configured so its boundary
// for the harness's request stream sits at bound.
func batchCases(t *testing.T, bound int) []batchCase {
	t.Helper()
	counting := newCounting(t, float64(bound), bound)
	bw, err := NewBandwidth(float64(bound))
	if err != nil {
		t.Fatal(err)
	}
	// Ample tokens: the bucket never sheds, so the boundary is the inner
	// counting bound (a denied inner admit refunds its token).
	tb, err := NewTokenBucket(newCounting(t, float64(bound), bound), 1, float64(2*bound))
	if err != nil {
		t.Fatal(err)
	}
	// Standard-class requests cut at the standard tier, set to the bound.
	tiered, err := NewTiered(float64(bound), bound, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Target above kmax: the measurement gate never binds, the hard bound
	// at kmax does.
	meas, err := NewMeasured(float64(bound), bound, float64(bound+2), 1)
	if err != nil {
		t.Fatal(err)
	}
	return []batchCase{
		{"counting", counting, 0, ClassStandard, bound},
		{"bandwidth", bw, 1, ClassStandard, bound},
		{"token-bucket", tb, 0, ClassStandard, bound},
		{"tiered", tiered, 0, ClassStandard, bound},
		{"measured", meas, 0, ClassStandard, bound},
	}
}

// TestAdmitBatchPrefixAtBoundary pins the partial-grant contract on every
// built-in: with j slots left before the bound, a batch of n > j grants
// exactly the first j ops and denies the other n−j, the grant side of the
// Decision carries the share, and releasing the batch drains the books.
func TestAdmitBatchPrefixAtBoundary(t *testing.T) {
	const bound, j, n = 16, 5, 12
	for _, tc := range batchCases(t, bound) {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < bound-j; i++ {
				if d := tc.pol.Admit(0, uint64(i+1), tc.rate, tc.class); !d.Admit {
					t.Fatalf("prefill admit %d denied: %+v", i, d)
				}
			}
			granted, dec := tc.pol.AdmitN(0, tc.rate, tc.class, n)
			if granted != j {
				t.Fatalf("batch of %d against %d free slots granted %d, want exactly %d", n, j, granted, j)
			}
			if !dec.Admit || !(dec.Share > 0) {
				t.Fatalf("partial grant decision lost the grant side: %+v", dec)
			}
			if dec.Load <= 0 {
				t.Fatalf("partial grant decision lost the denial's observed load: %+v", dec)
			}
			if a := tc.pol.Active(); a != int64(bound) {
				t.Fatalf("active = %d after the boundary batch, want %d", a, bound)
			}
			// A follow-up batch against the full link grants nothing.
			if g, d := tc.pol.AdmitN(0, tc.rate, tc.class, n); g != 0 || d.Admit {
				t.Fatalf("batch against a full link granted %d (%+v)", g, d)
			}
			tc.pol.ReleaseN(0, tc.rate, j)
			tc.pol.ReleaseN(0, tc.rate, bound-j)
			if a := tc.pol.Active(); a != 0 {
				t.Fatalf("active = %d after releasing everything, want 0", a)
			}
		})
	}
}

// TestAdmitBatchBoundaryRaced races concurrent batches at the admission
// boundary: with exactly j free slots and every racer asking for more than
// its fair share, the grants across all racers must sum to exactly j —
// the vectored built-ins claim their prefix in a single CAS, and the loop
// fallback's per-op claims are individually atomic — and the denied
// remainder must leave no residue. Run under -race in CI.
func TestAdmitBatchBoundaryRaced(t *testing.T) {
	const bound, j, racers, n = 64, 5, 8, 16
	for _, tc := range batchCases(t, bound) {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < bound-j; i++ {
				if d := tc.pol.Admit(0, uint64(i+1), tc.rate, tc.class); !d.Admit {
					t.Fatalf("prefill admit %d denied: %+v", i, d)
				}
			}
			var total atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < racers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					granted, _ := tc.pol.AdmitN(0, tc.rate, tc.class, n)
					total.Add(int64(granted))
				}(w)
			}
			wg.Wait()
			if g := total.Load(); g != j {
				t.Fatalf("raced batches granted %d across %d racers, want exactly the %d free slots", g, racers, j)
			}
			if a := tc.pol.Active(); a != int64(bound) {
				t.Fatalf("active = %d after the race, want %d", a, bound)
			}
			tc.pol.ReleaseN(0, tc.rate, bound)
			if a := tc.pol.Active(); a != 0 {
				t.Fatalf("active = %d after releasing everything, want 0", a)
			}
		})
	}
}

// TestAdmitBatchMatchesSerialSingles is the loop-fallback conformance
// check: for every built-in, a batch decides exactly like the same ops
// sent one Admit at a time at the same frozen now — same grant count from
// the same starting state, including a token bucket that sheds mid-batch.
func TestAdmitBatchMatchesSerialSingles(t *testing.T) {
	mk := func(t *testing.T) []batchCase {
		cases := batchCases(t, 8)
		// A shedding bucket: 3 tokens, so a batch of 6 cuts at 3 even
		// though the inner link has room — the fallback loop must stop
		// exactly where serial singles would.
		tb, err := NewTokenBucket(newCounting(t, 8, 8), 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return append(cases, batchCase{"token-bucket-shedding", tb, 0, ClassStandard, 3})
	}
	serial := mk(t)
	batched := mk(t)
	const n = 6
	for i := range serial {
		t.Run(serial[i].name, func(t *testing.T) {
			s, b := serial[i], batched[i]
			var want int
			for k := 0; k < n; k++ {
				if s.pol.Admit(0, uint64(k+1), s.rate, s.class).Admit {
					want++
				}
			}
			got, _ := b.pol.AdmitN(0, b.rate, b.class, n)
			if got != want {
				t.Fatalf("batch granted %d, serial singles granted %d", got, want)
			}
			if sa, ba := s.pol.Active(), b.pol.Active(); sa != ba {
				t.Fatalf("active diverged: serial %d, batched %d", sa, ba)
			}
		})
	}
}

// TestAdmitNGatesHoldOnRuns pins one run cut by a gate in front of the
// count, at one instant: each gate grants fewer ops than the free slots
// under kmax, which a claim at kmax alone would grant, and books the cut
// as n single Admits would.
func TestAdmitNGatesHoldOnRuns(t *testing.T) {
	tb, err := NewTokenBucket(newCounting(t, 8, 8), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewTiered(16, 16, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := NewMeasured(8, 8, 3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	const ms = int64(1e6)
	cases := []struct {
		name    string
		pol     Policy
		prefill []int64 // instants of single standard admits before the run
		at      int64   // the run's instant
		n       int
		granted int
		load    float64
		books   func(t *testing.T)
	}{
		{"token-bucket", tb, nil, 0, 6, 3, 3, func(t *testing.T) {
			if c := tb.Calibration(); c.Decisions != 4 || c.Sheds != 1 || c.Blocks != 0 {
				t.Errorf("calibration %+v, want 4 decisions, 1 shed, 0 blocks", c)
			}
		}},
		{"tiered", tiered, []int64{0, 0, 0, 0, 0, 0}, 0, 12, 4, 10, func(t *testing.T) {
			if g := tiered.Gauges()[0]; g.Name != "denied_standard" || g.Value() != 8 {
				t.Errorf("%s = %g, want denied_standard = 8", g.Name, g.Value())
			}
		}},
		{"measured", meas, []int64{ms, 2 * ms, 3 * ms}, 4 * ms, 4, 0, 3, func(*testing.T) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, now := range tc.prefill {
				if !tc.pol.Admit(now, uint64(i+1), 0, ClassStandard).Admit {
					t.Fatalf("prefill admit %d denied", i)
				}
			}
			granted, dec := tc.pol.AdmitN(tc.at, 0, ClassStandard, tc.n)
			if granted != tc.granted || dec.Load != tc.load {
				t.Fatalf("run of %d granted %d with load %g, want %d with load %g", tc.n, granted, dec.Load, tc.granted, tc.load)
			}
			if a, want := tc.pol.Active(), int64(len(tc.prefill)+tc.granted); a != want {
				t.Fatalf("active = %d after the run, want %d", a, want)
			}
			tc.books(t)
		})
	}
}
