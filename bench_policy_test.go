package beqos_test

import (
	"testing"

	"beqos/internal/policy"
)

// BenchmarkPolicyAdmit measures the admission decision itself — one
// Admit→Release cycle per op, no protocol framing — for every policy, with
// allocs/op reported so the zero-allocation default paths are gated by
// `make bench-diff` alongside the end-to-end server benchmarks.
func BenchmarkPolicyAdmit(b *testing.B) {
	const capacity = 8.0
	const kmax = 8
	mk := func(f func() (policy.Policy, error)) policy.Policy {
		p, err := f()
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		pol  policy.Policy
		rate float64
	}{
		{"counting", mk(func() (policy.Policy, error) { return policy.NewCounting(capacity, kmax) }), 0},
		{"bandwidth", mk(func() (policy.Policy, error) { return policy.NewBandwidth(capacity) }), 1},
		{"token-bucket", mk(func() (policy.Policy, error) {
			inner, err := policy.NewCounting(capacity, kmax)
			if err != nil {
				return nil, err
			}
			return policy.NewTokenBucket(inner, 1e9, 1<<20)
		}), 0},
		{"tiered", mk(func() (policy.Policy, error) { return policy.NewTiered(capacity, kmax, 6, 4) }), 0},
		{"measured", mk(func() (policy.Policy, error) { return policy.NewMeasured(capacity, kmax, kmax+2, 1) }), 0},
	}
	for _, tc := range cases {
		// The policy outlives every run of its sub-benchmark (b.N probes
		// and -count repeats), so its clock does too: a clock that
		// restarted at 0 would run backwards, and the token bucket would
		// stop refilling.
		now := int64(0)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 1000 // advance the policy clock 1µs per decision
				dec := tc.pol.Admit(now, uint64(i), tc.rate, policy.ClassStandard)
				if dec.Admit {
					tc.pol.Release(now, tc.rate)
				}
			}
		})
	}
}

// BenchmarkPolicyAdmitN measures the vectored admission path — one
// AdmitBatch(64)→ReleaseBatch(64) cycle per op. Counting, bandwidth, and
// tiered take their native AdmitN fast path (one CAS for the whole run);
// token-bucket and measured fall back to the conformance-tested serial
// loop. The req-rate comparison against BenchmarkPolicyAdmit is the
// per-decision amortization batching buys below the wire.
func BenchmarkPolicyAdmitN(b *testing.B) {
	const capacity = 128.0
	const kmax = 128
	const batch = 64
	mk := func(f func() (policy.Policy, error)) policy.Policy {
		p, err := f()
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		pol  policy.Policy
		rate float64
	}{
		{"counting", mk(func() (policy.Policy, error) { return policy.NewCounting(capacity, kmax) }), 0},
		{"bandwidth", mk(func() (policy.Policy, error) { return policy.NewBandwidth(capacity) }), 1},
		{"token-bucket", mk(func() (policy.Policy, error) {
			inner, err := policy.NewCounting(capacity, kmax)
			if err != nil {
				return nil, err
			}
			return policy.NewTokenBucket(inner, 1e9, 1<<20)
		}), 0},
		{"tiered", mk(func() (policy.Policy, error) { return policy.NewTiered(capacity, kmax, 96, 64) }), 0},
		{"measured", mk(func() (policy.Policy, error) { return policy.NewMeasured(capacity, kmax, kmax+2, 1) }), 0},
	}
	for _, tc := range cases {
		now := int64(0) // outlives each run, as in BenchmarkPolicyAdmit
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 1000
				granted, _ := policy.AdmitBatch(tc.pol, now, uint64(i), tc.rate, policy.ClassStandard, batch)
				if granted != batch {
					b.Fatalf("granted %d/%d with %d slots free", granted, batch, kmax)
				}
				policy.ReleaseBatch(tc.pol, now, tc.rate, batch)
			}
		})
	}
}
