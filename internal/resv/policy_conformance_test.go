package resv

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beqos/internal/policy"
)

// The policy conformance suite: every admission policy behind
// NewServerPolicy must uphold the serving plane's invariants —
//
//   - no over-admit under concurrent reserves at the admission boundary;
//   - a retransmitted reserve at a full link resolves through the dedup
//     lookup, never a second admission and never a spurious denial;
//   - TTL expiry returns exactly the claims admission took, so the link
//     refills to the same bound;
//   - the default policies keep the instrumented dispatch path at zero
//     allocations per reserve→teardown cycle.
//
// Builders return a fresh policy per subtest (policies are stateful).

// transparentTB is a token bucket deep and fast enough never to shed in a
// test: it must be behaviorally invisible in front of its inner policy.
func transparentTB(t *testing.T, capacity float64, kmax int) policy.Policy {
	t.Helper()
	inner, err := policy.NewCounting(capacity, kmax)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := policy.NewTokenBucket(inner, 1e9, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// openMeasured is a measured policy whose target can never bind (target ≥
// kmax+1), leaving the hard CAS bound as the only gate — the estimator
// must not perturb admission accounting.
func openMeasured(t *testing.T, capacity float64, kmax int) policy.Policy {
	t.Helper()
	p, err := policy.NewMeasured(capacity, kmax, float64(kmax)+2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// conformancePolicies builds one fresh instance of every policy sized so
// that class-`class` traffic is admitted up to `bound` on a link of the
// given capacity.
type conformanceCase struct {
	name  string
	class uint8
	bound int
	build func(t *testing.T) policy.Policy
}

func conformanceCases(t *testing.T, capacity float64, kmax int) []conformanceCase {
	t.Helper()
	mk := func(f func() (policy.Policy, error)) func(*testing.T) policy.Policy {
		return func(t *testing.T) policy.Policy {
			t.Helper()
			p, err := f()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	tieredStd := kmax * 3 / 4
	tieredShed := kmax / 2
	if tieredStd < 1 {
		tieredStd = 1
	}
	if tieredShed < 1 {
		tieredShed = 1
	}
	return []conformanceCase{
		{"counting", policy.ClassStandard, kmax,
			mk(func() (policy.Policy, error) { return policy.NewCounting(capacity, kmax) })},
		{"bandwidth", policy.ClassStandard, int(capacity),
			mk(func() (policy.Policy, error) { return policy.NewBandwidth(capacity) })},
		{"token-bucket", policy.ClassStandard, kmax,
			func(t *testing.T) policy.Policy { return transparentTB(t, capacity, kmax) }},
		{"tiered-standard", policy.ClassStandard, tieredStd,
			mk(func() (policy.Policy, error) { return policy.NewTiered(capacity, kmax, tieredStd, tieredShed) })},
		{"tiered-critical", policy.ClassCritical, kmax,
			mk(func() (policy.Policy, error) { return policy.NewTiered(capacity, kmax, tieredStd, tieredShed) })},
		{"tiered-sheddable", policy.ClassSheddable, tieredShed,
			mk(func() (policy.Policy, error) { return policy.NewTiered(capacity, kmax, tieredStd, tieredShed) })},
		{"measured", policy.ClassStandard, kmax,
			func(t *testing.T) policy.Policy { return openMeasured(t, capacity, kmax) }},
	}
}

// TestPolicyConformanceConcurrentAdmit races many clients at each policy's
// admission boundary: exactly `bound` simultaneous class-tagged requests
// may win, the books must balance, and the connection-scoped release must
// drain everything.
func TestPolicyConformanceConcurrentAdmit(t *testing.T) {
	const capacity = 8.0
	const kmax = 8
	const clients = 32
	for _, tc := range conformanceCases(t, capacity, kmax) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerPolicy(tc.build(t), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for round := 0; round < 5; round++ {
				cls := make([]*Client, clients)
				for i := range cls {
					cEnd, sEnd := net.Pipe()
					go s.HandleConn(sEnd)
					cls[i] = NewClient(cEnd)
				}
				var granted atomic.Int64
				var start, done sync.WaitGroup
				start.Add(1)
				for i, cl := range cls {
					done.Add(1)
					go func(cl *Client, id uint64) {
						defer done.Done()
						start.Wait()
						ok, _, err := cl.ReserveClass(context.Background(), id, 1, tc.class)
						if err != nil {
							t.Errorf("reserve flow %d: %v", id, err)
							return
						}
						if ok {
							granted.Add(1)
						}
					}(cl, uint64(round*clients+i+1))
				}
				start.Done()
				done.Wait()
				if g := granted.Load(); g != int64(tc.bound) {
					t.Fatalf("round %d: granted %d of %d simultaneous requests, want exactly %d", round, g, clients, tc.bound)
				}
				if a := s.Active(); a != tc.bound {
					t.Fatalf("round %d: active = %d, want %d", round, a, tc.bound)
				}
				for _, cl := range cls {
					cl.Close()
				}
				waitActive(t, s, 0)
			}
		})
	}
}

// TestPolicyConformanceRetransmitAtFullLink pins the nastiest dedup corner
// for every policy: the lost grant's own admission filled the link, so the
// retransmitted reserve arrives with the policy at its bound. The deny
// path must fall through to the dedup lookup and re-grant from the live
// reservation — one grant, one dup, zero denials, zero double admissions.
func TestPolicyConformanceRetransmitAtFullLink(t *testing.T) {
	for _, tc := range conformanceCases(t, 1, 1) {
		if tc.class != policy.ClassStandard {
			// Retransmission semantics are class-independent; the standard
			// tier (identical bound at kmax 1) covers the tiered policy.
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerPolicy(tc.build(t), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			addr := startUDPServer(t, s)
			cl, fc := dialUDPTest(t, addr, fastUDP)

			dropped := false
			fc.recvDrop = func(f Frame) bool {
				if f.Type == MsgGrant && !dropped {
					dropped = true
					return true
				}
				return false
			}
			ok, share, err := cl.Reserve(ctx(t), 9, 1)
			if err != nil || !ok {
				t.Fatalf("reserve: ok=%v err=%v (a full-link retransmit was denied?)", ok, err)
			}
			if share != 1 {
				t.Errorf("re-granted share = %g, want the original grant's 1", share)
			}
			if !dropped {
				t.Fatal("filter never dropped a grant; the test exercised nothing")
			}
			m := s.Metrics()
			if g, d, den := m.Grants.Load(), m.DupReserves.Load(), m.Denials.Load(); g != 1 || d != 1 || den != 0 {
				t.Errorf("grants=%d dups=%d denials=%d, want 1, 1, 0", g, d, den)
			}
			if a := s.Active(); a != 1 {
				t.Errorf("active = %d, want 1", a)
			}
		})
	}
}

// TestPolicyConformanceTTLExpiryReleases fills each policy to its bound,
// lets the soft state expire unrefreshed, and refills: expiry must return
// exactly the claims admission took, for every policy.
func TestPolicyConformanceTTLExpiryReleases(t *testing.T) {
	const capacity = 4.0
	const kmax = 4
	for _, tc := range conformanceCases(t, capacity, kmax) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerPolicy(tc.build(t), 40*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cl := pipeClient(t, s)
			fill := func(base uint64) {
				t.Helper()
				for i := 0; i < tc.bound; i++ {
					ok, _, err := cl.ReserveClass(ctx(t), base+uint64(i), 1, tc.class)
					if err != nil || !ok {
						t.Fatalf("reserve flow %d: ok=%v err=%v", base+uint64(i), ok, err)
					}
				}
				// The next request must be denied: the policy is at its bound.
				ok, _, err := cl.ReserveClass(ctx(t), base+uint64(tc.bound), 1, tc.class)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Fatalf("admitted past the bound %d", tc.bound)
				}
			}
			fill(1)
			waitActive(t, s, 0) // unrefreshed soft state expires
			fill(100)           // expiry returned every claim: the link refills
			if a := s.Active(); a != tc.bound {
				t.Errorf("active after refill = %d, want %d", a, tc.bound)
			}
		})
	}
}

// TestPolicyServerZeroAllocDefaults holds the default policies, served
// through the pluggable path, to the same standard as the legacy
// constructors: zero allocations per instrumented reserve→teardown cycle.
func TestPolicyServerZeroAllocDefaults(t *testing.T) {
	counting, err := policy.NewCounting(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	bandwidth, err := policy.NewBandwidth(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, pol := range map[string]policy.Policy{"counting": counting, "bandwidth": bandwidth} {
		t.Run(name, func(t *testing.T) {
			s, err := NewServerPolicy(pol, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := &streamConn{s: s, c: s.newConn()}
			reserve := Frame{Type: MsgRequest, FlowID: 42, Value: 1}
			teardown := Frame{Type: MsgTeardown, FlowID: 42}
			allocs := testing.AllocsPerRun(1000, func() {
				h.Serve(reserve, 0)
				h.Serve(teardown, 0)
				h.Served(2, 1500*time.Nanosecond)
			})
			if allocs != 0 {
				t.Errorf("policy-served dispatch allocates %v/op, want 0", allocs)
			}
		})
	}
}
