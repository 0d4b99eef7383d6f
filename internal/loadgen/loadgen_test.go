package loadgen

import (
	"math"
	"testing"
	"time"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/resv"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// newModel builds the analytical reference: Poisson load with the given
// mean against the given utility.
func newModel(t *testing.T, mean float64, util utility.Function) *core.Model {
	t.Helper()
	load, err := dist.NewPoisson(mean)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(load, util)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stationary compiles flag-style stationary dynamics (see Stationary).
func stationary(t *testing.T, rate, hold, duration, warmup float64) *workload.Scenario {
	t.Helper()
	scn, err := Stationary(rate, hold, duration, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func newServer(t *testing.T, capacity float64, util utility.Function) *resv.Server {
	t.Helper()
	s, err := resv.NewServer(capacity, util)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoadHarnessMatchesModel is the acceptance scenario: a run against an
// in-process server at k̄ = 100 with adaptive utility and C = 100 must
// report blocking within 3σ of the model's P(k > kmax) and mean utility
// within 3σ of R(C).
func TestLoadHarnessMatchesModel(t *testing.T) {
	util := utility.NewAdaptive()
	const c = 100.0
	srv := newServer(t, c, util)
	res, err := Run(Config{
		Server:   srv,
		Capacity: c,
		Util:     util,
		Workload: stationary(t, 100, 1, 80, 0),
		Seed1:    2, Seed2: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KMax != 100 {
		t.Fatalf("kmax = %d, want 100 (adaptive utility has kmax = C)", res.KMax)
	}
	if res.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", res.Anomalies)
	}
	if res.FinalActive != 0 {
		t.Errorf("final active = %d, want 0", res.FinalActive)
	}
	m := newModel(t, 100, util)
	cr, err := CrossCheck(res, m, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range cr.Checks {
		t.Logf("%-28s measured %.4f  model %.4f  sigma %.4f  z %.2f  ok %v",
			ck.Name, ck.Measured, ck.Predicted, ck.Sigma, ck.Z, ck.OK)
	}
	if !cr.AllOK() {
		t.Errorf("cross-validation failed: %v", cr.Failed())
	}
	// The acceptance criterion spelled out, independent of CrossCheck's
	// plumbing: measured blocking vs P(k > kmax), measured utility vs R(C).
	if z := math.Abs(res.OverloadFraction-m.Load().TailProb(res.KMax)) / res.OverloadSigma; z > 3 {
		t.Errorf("blocking %.4f is %.1fσ from P(k > kmax) = %.4f", res.OverloadFraction, z, m.Load().TailProb(res.KMax))
	}
	if z := math.Abs(res.MeanUtility-m.Reservation(c)) / res.UtilitySigma; z > 3 {
		t.Errorf("mean utility %.4f is %.1fσ from R(C) = %.4f", res.MeanUtility, z, m.Reservation(c))
	}
	if res.Latency.Count == 0 {
		t.Error("latency histogram is empty")
	}
	// The harness's counters are the shared client instrument set read out;
	// they must satisfy the protocol's own conservation law.
	if res.Grants != res.Attempts-res.Denied {
		t.Errorf("grants = %d, want attempts − denied = %d", res.Grants, res.Attempts-res.Denied)
	}
}

// TestRigidUtilityScenario cross-validates a second operating point: rigid
// utility at C = 8 (kmax = 8) under k̄ = 6.
func TestRigidUtilityScenario(t *testing.T) {
	util, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	const c = 8.0
	srv := newServer(t, c, util)
	res, err := Run(Config{
		Server:   srv,
		Capacity: c,
		Util:     util,
		Conns:    2,
		Workload: stationary(t, 12, 0.5, 60, 0),
		Seed1:    7, Seed2: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := CrossCheck(res, newModel(t, 6, util), c)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.AllOK() {
		for _, ck := range cr.Checks {
			t.Logf("%-28s measured %.4f  model %.4f  sigma %.4f  z %.2f  ok %v",
				ck.Name, ck.Measured, ck.Predicted, ck.Sigma, ck.Z, ck.OK)
		}
		t.Errorf("cross-validation failed: %v", cr.Failed())
	}
}

// TestDeterministicForFixedSeed runs the same configuration twice and
// demands bit-identical measurements.
func TestDeterministicForFixedSeed(t *testing.T) {
	util := utility.NewAdaptive()
	run := func() *Result {
		res, err := Run(Config{
			Server:   newServer(t, 10, util),
			Capacity: 10,
			Util:     util,
			Workload: stationary(t, 20, 0.5, 20, 0),
			Seed1:    3, Seed2: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Flows != b.Flows || a.FirstDenied != b.FirstDenied ||
		a.Attempts != b.Attempts || a.Denied != b.Denied ||
		a.Grants != b.Grants || a.Teardowns != b.Teardowns {
		t.Errorf("counters differ between identical runs:\n%+v\n%+v", a, b)
	}
	if a.OverloadFraction != b.OverloadFraction || a.DenyRate != b.DenyRate ||
		a.MeanUtility != b.MeanUtility || a.MeasuredMeanLoad != b.MeasuredMeanLoad ||
		a.OverloadSigma != b.OverloadSigma || a.UtilitySigma != b.UtilitySigma {
		t.Errorf("statistics differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestRetryRunsDeterministic is the regression test for retry-backoff
// jitter drawing from the process-global generator: a run exercising
// ReserveWithRetry must be exactly as reproducible as a plain run, because
// the harness seeds the retry policy's RNG from the run seed.
func TestRetryRunsDeterministic(t *testing.T) {
	util := utility.NewAdaptive()
	run := func() *Result {
		res, err := Run(Config{
			Server:   newServer(t, 10, util),
			Capacity: 10,
			Util:     util,
			Workload: stationary(t, 20, 0.5, 20, 0),
			Seed1:    11, Seed2: 13,
			RetryAttempts: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Retries == 0 {
		t.Fatal("the run exercised no retries; raise the load")
	}
	if a.Flows != b.Flows || a.FirstDenied != b.FirstDenied ||
		a.Attempts != b.Attempts || a.Denied != b.Denied ||
		a.Grants != b.Grants || a.Retries != b.Retries {
		t.Errorf("counters differ between identical retrying runs:\n%+v\n%+v", a, b)
	}
	if a.DenyRate != b.DenyRate || a.MeanUtility != b.MeanUtility ||
		a.MeasuredMeanLoad != b.MeasuredMeanLoad {
		t.Errorf("statistics differ between identical retrying runs:\n%+v\n%+v", a, b)
	}
}

// TestDropFaultsRecover injects connection drops and demands the harness
// books stay consistent with the server's: reservations are re-established
// and the statistics still match the model.
func TestDropFaultsRecover(t *testing.T) {
	util := utility.NewAdaptive()
	srv := newServer(t, 10, util)
	res, err := Run(Config{
		Server:   srv,
		Capacity: 10,
		Util:     util,
		Conns:    2,
		Workload: stationary(t, 20, 0.5, 30, 0),
		Seed1:    5, Seed2: 6,
		DropEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("no drops were injected")
	}
	if res.Reconnects != res.Drops {
		t.Errorf("reconnects = %d, want %d (one per drop)", res.Reconnects, res.Drops)
	}
	if res.Reissued == 0 {
		t.Error("no reservations were re-established after drops")
	}
	if res.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", res.Anomalies)
	}
	if res.FinalActive != 0 {
		t.Errorf("final active = %d, want 0", res.FinalActive)
	}
	cr, err := CrossCheck(res, newModel(t, 10, util), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.AllOK() {
		t.Errorf("cross-validation failed under drops: %v", cr.Failed())
	}
}

// TestRetryPathExercised drives arrivals through ReserveWithRetry and
// checks the retry accounting: immediate same-instant retries must all be
// denied (nothing can change between synchronous attempts), so retries are
// observed without perturbing the admission statistics.
func TestRetryPathExercised(t *testing.T) {
	util := utility.NewAdaptive()
	res, err := Run(Config{
		Server:   newServer(t, 10, util),
		Capacity: 10,
		Util:     util,
		Workload: stationary(t, 20, 0.5, 20, 0),
		Seed1:    3, Seed2: 4,
		RetryAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("no retries were performed")
	}
	// Each denied arrival burns all 3 attempts: 2 retries and 3 denials per
	// burst, so the counters must stay in a strict 2:3 ratio.
	if res.Retries*3 != res.Denied*2 {
		t.Errorf("retries = %d, denied = %d; want a 2:3 ratio", res.Retries, res.Denied)
	}
	cr, err := CrossCheck(res, newModel(t, 10, util), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.AllOK() {
		t.Errorf("cross-validation failed under retries: %v", cr.Failed())
	}
}

// TestConfigValidation exercises Run's input checking.
func TestConfigValidation(t *testing.T) {
	util := utility.NewAdaptive()
	srv := newServer(t, 4, util)
	base := Config{Server: srv, Capacity: 4, Util: util, Workload: stationary(t, 1, 1, 1, 0)}
	bad := []func(*Config){
		func(c *Config) { c.Server = nil },
		func(c *Config) { c.Addr = "localhost:1" },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.Util = nil },
		func(c *Config) { c.Workload = nil },
		func(c *Config) { c.Conns = -1 },
		func(c *Config) { c.DropEvery = -1 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d was accepted", i)
		}
	}
}

// TestProbeSoftState exercises the real-time TTL probe end to end against
// an in-process soft-state server.
func TestProbeSoftState(t *testing.T) {
	util := utility.NewAdaptive()
	const ttl = 150 * time.Millisecond
	srv, err := resv.NewServerTTL(4, util, ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := ProbeSoftState(ProbeConfig{Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTL != ttl {
		t.Errorf("probe saw TTL %v, want %v", res.TTL, ttl)
	}
	if res.Reserved != 4 || res.Keepers != 2 || res.Stalled != 2 {
		t.Errorf("probe filled %d slots with %d keepers / %d stalled, want 4 = 2 + 2",
			res.Reserved, res.Keepers, res.Stalled)
	}
	if !res.RetryGranted || res.Retries < 1 {
		t.Errorf("newcomer not granted after retries (granted %v, retries %d)", res.RetryGranted, res.Retries)
	}
	if res.Kept != res.Keepers {
		t.Errorf("kept %d of %d refreshed reservations", res.Kept, res.Keepers)
	}
	if res.Expired != res.Stalled {
		t.Errorf("only %d of %d stalled reservations expired", res.Expired, res.Stalled)
	}
	if !res.OK() {
		t.Errorf("probe result not OK: %+v", res)
	}
	if srv.Active() != 0 {
		t.Errorf("server still holds %d reservations after probe cleanup", srv.Active())
	}
}

// TestProbeRejectsNoTTLServer: probing a server that never expires
// reservations must fail loudly rather than hang.
func TestProbeRejectsNoTTLServer(t *testing.T) {
	util := utility.NewAdaptive()
	srv := newServer(t, 4, util)
	if _, err := ProbeSoftState(ProbeConfig{Server: srv}); err == nil {
		t.Fatal("probing a no-TTL server should fail")
	}
}

// TestHarnessWithConcurrentObservers runs the load harness while outside
// goroutines hammer the server's lock-free observers — the same accessors
// the soft-state probe samples in real time. Under -race this pins down
// that Active/Allocated reads need no lock against live admission traffic;
// the harness result must be unaffected.
func TestHarnessWithConcurrentObservers(t *testing.T) {
	util := utility.NewAdaptive()
	const c = 20.0
	srv := newServer(t, c, util)
	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a := srv.Active(); a < 0 || a > int(c) {
					t.Errorf("Active() = %d outside [0, %g]", a, c)
					return
				}
				if al := srv.Allocated(); al < 0 || al > c {
					t.Errorf("Allocated() = %g outside [0, %g]", al, c)
					return
				}
			}
		}()
	}
	res, err := Run(Config{
		Server:   srv,
		Capacity: c,
		Util:     util,
		Workload: stationary(t, 20, 1, 40, 0),
		Seed1:    7, Seed2: 7,
	})
	close(stop)
	for w := 0; w < 4; w++ {
		<-done
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", res.Anomalies)
	}
	if res.FinalActive != 0 {
		t.Errorf("final active = %d, want 0", res.FinalActive)
	}
}
