package sim

import (
	"math"
	"testing"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

func rigidFn(t testing.TB) utility.Function {
	t.Helper()
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// onePhase compiles one-phase test traffic: no prefill, the given warmup,
// and a phase lasting horizon.
func onePhase(t testing.TB, horizon, warmup float64, arr workload.ArrivalSpec, hold workload.HoldSpec) *workload.Scenario {
	t.Helper()
	scn, err := workload.OnePhase(0, warmup, horizon, arr, hold)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// mmInf is M/M/∞ traffic at offered load rate·holdMean = 10·10.
func mmInf(t testing.TB, horizon, warmup float64) *workload.Scenario {
	return onePhase(t, horizon, warmup, workload.ArrivalSpec{Kind: "poisson", Rate: 10}, workload.HoldSpec{Kind: "exp", Mean: 10})
}

// sessions is Poisson session traffic at sessionRate, each session a
// Pareto(scale, 1.5) batch of flows with exponential holds of holdMean.
func sessions(t testing.TB, horizon, warmup, sessionRate, scale, holdMean float64) *workload.Scenario {
	arr := workload.ArrivalSpec{Kind: "session", Scale: scale, Shape: 1.5}
	arr.Rate = sessionRate * arr.MeanBatch()
	return onePhase(t, horizon, warmup, arr, workload.HoldSpec{Kind: "exp", Mean: holdMean})
}

// mmInfConfig returns a Config for an M/M/∞-style run with offered load
// rate·holdMean.
func mmInfConfig(t testing.TB, capacity float64, policy Policy, seed uint64) Config {
	t.Helper()
	return Config{
		Capacity: capacity,
		Util:     rigidFn(t),
		Policy:   policy,
		Workload: mmInf(t, 30000, 500),
		Samples:  1,
		Seed1:    seed,
		Seed2:    seed + 1,
	}
}

// mmInfClasses is mmInf(30000, 500) traffic carrying a class mixture (the
// spec's class lines).
func mmInfClasses(t testing.TB, classes string) *workload.Scenario {
	t.Helper()
	scn, err := workload.Parse("scenario classes\nwarmup 500\n" + classes + "phase p 30000\narrivals poisson rate=10\nholding exp mean=10\n")
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func TestRunValidation(t *testing.T) {
	good := mmInfConfig(t, 150, BestEffort, 1)
	bad := good
	bad.Capacity = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero capacity should fail")
	}
	bad = good
	bad.Util = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil utility should fail")
	}
	bad = good
	bad.Workload = nil
	if _, err := Run(bad); err == nil {
		t.Error("a run without traffic should fail")
	}
	bad = good
	bad.Samples = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative samples should fail")
	}
	bad = good
	bad.Retry = &RetryConfig{MeanBackoff: 1, MaxAttempts: 3}
	if _, err := Run(bad); err == nil {
		t.Error("retry with best-effort should fail")
	}
	bad = mmInfConfig(t, 150, Reservation, 1)
	bad.Retry = &RetryConfig{MeanBackoff: 0, MaxAttempts: 3}
	if _, err := Run(bad); err == nil {
		t.Error("zero backoff should fail")
	}
	bad = mmInfConfig(t, 0.5, Reservation, 1)
	if _, err := Run(bad); err == nil {
		t.Error("reservation admitting nobody should fail")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(mmInfConfig(t, 150, BestEffort, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mmInfConfig(t, 150, BestEffort, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows != b.Flows || a.MeanUtility != b.MeanUtility || a.AvgOccupancy != b.AvgOccupancy {
		t.Errorf("same seed gave different results: %+v vs %+v", a, b)
	}
	if a.Events != b.Events || a.ArenaPeak != b.ArenaPeak {
		t.Errorf("engine footprint differs between identical runs: (%d, %d) vs (%d, %d)",
			a.Events, a.ArenaPeak, b.Events, b.ArenaPeak)
	}
	// The footprint counters must be coherent with the run itself: at least
	// one event per flow dispatched, and an arena at least as large as the
	// peak concurrency it had to hold.
	if a.Events < uint64(a.Flows) {
		t.Errorf("events = %d < flows = %d", a.Events, a.Flows)
	}
	if a.ArenaPeak < a.PeakOccupancy {
		t.Errorf("arena peak %d < peak occupancy %d", a.ArenaPeak, a.PeakOccupancy)
	}
}

func TestMMInfOccupancyIsPoisson(t *testing.T) {
	// Poisson arrivals (rate 10) with exponential holding (mean 10) give
	// M/M/∞: stationary occupancy Poisson with mean 100.
	res, err := Run(mmInfConfig(t, 1e9, BestEffort, 7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgOccupancy-100) > 2 {
		t.Errorf("mean occupancy = %v, want ≈ 100", res.AvgOccupancy)
	}
	// Poisson: variance ≈ mean.
	variance := res.Occupancy.SquareTailMean(-1) - res.AvgOccupancy*res.AvgOccupancy
	if math.Abs(variance-100) > 12 {
		t.Errorf("occupancy variance = %v, want ≈ 100 (Poisson)", variance)
	}
	// CDF sup-distance against the exact Poisson law.
	want, err := dist.NewPoisson(100)
	if err != nil {
		t.Fatal(err)
	}
	var sup float64
	for k := 50; k <= 150; k++ {
		if d := math.Abs(res.Occupancy.CDF(k) - want.CDF(k)); d > sup {
			sup = d
		}
	}
	if sup > 0.03 {
		t.Errorf("occupancy CDF sup-distance from Poisson = %v", sup)
	}
}

func TestReservationNeverExceedsKMax(t *testing.T) {
	cfg := mmInfConfig(t, 100, Reservation, 9)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakOccupancy > 100 {
		t.Errorf("peak occupancy %d exceeds kmax 100", res.PeakOccupancy)
	}
	if res.Rejected == 0 {
		t.Error("an M/M/100/100 system at offered load 100 must block sometimes")
	}
}

// erlangB returns the Erlang-B blocking probability for offered load a over
// c circuits, via the standard recurrence.
func erlangB(a float64, c int) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

func TestReservationBlockingMatchesErlangB(t *testing.T) {
	// With rigid b̂ = 1 and capacity 100, the reservation link is
	// M/M/100/100 at offered load 100; blocking follows Erlang B ≈ 0.0757.
	cfg := mmInfConfig(t, 100, Reservation, 21)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := erlangB(100, 100)
	if math.Abs(res.BlockingRate-want) > 0.012 {
		t.Errorf("blocking = %v, Erlang B = %v", res.BlockingRate, want)
	}
}

func TestBestEffortUtilityMatchesAnalyticModel(t *testing.T) {
	// The measured per-flow utility under Poisson dynamics should track
	// the analytical B(C) with a Poisson load (the paper's static-load
	// approximation); with S = 1 the model's size-biased per-flow view is
	// exactly what the simulation measures at arrival instants.
	load, err := dist.NewPoisson(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(load, rigidFn(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{90, 110, 130} {
		res, err := Run(mmInfConfig(t, c, BestEffort, 33))
		if err != nil {
			t.Fatal(err)
		}
		want := m.BestEffort(c)
		if math.Abs(res.MeanUtility-want) > 0.03 {
			t.Errorf("C=%g: simulated utility %v vs model B(C) %v", c, res.MeanUtility, want)
		}
	}
}

func TestReservationUtilityMatchesAnalyticModel(t *testing.T) {
	load, err := dist.NewPoisson(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(load, rigidFn(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{90, 120} {
		res, err := Run(mmInfConfig(t, c, Reservation, 55))
		if err != nil {
			t.Fatal(err)
		}
		want := m.Reservation(c)
		// The static-load model clips overloads (E[(k−kmax)+]) while the
		// dynamic loss system blocks at the Erlang-B rate, which is
		// somewhat larger; the simulated utility therefore sits slightly
		// below R(C). (Quantified in EXPERIMENTS.md.)
		if res.MeanUtility > want+0.01 {
			t.Errorf("C=%g: simulated utility %v above static model R(C) %v", c, res.MeanUtility, want)
		}
		if math.Abs(res.MeanUtility-want) > 0.05 {
			t.Errorf("C=%g: simulated utility %v vs model R(C) %v", c, res.MeanUtility, want)
		}
	}
}

func TestSimulatedOccupancyFeedsModel(t *testing.T) {
	// End-to-end: run the simulator, feed the measured stationary
	// distribution into the analytical model, and compare against the
	// exact Poisson prediction.
	res, err := Run(mmInfConfig(t, 1e9, BestEffort, 77))
	if err != nil {
		t.Fatal(err)
	}
	mSim, err := core.New(res.Occupancy, rigidFn(t))
	if err != nil {
		t.Fatal(err)
	}
	load, err := dist.NewPoisson(100)
	if err != nil {
		t.Fatal(err)
	}
	mExact, err := core.New(load, rigidFn(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{80, 100, 120} {
		bs, be := mSim.BestEffort(c), mExact.BestEffort(c)
		if math.Abs(bs-be) > 0.03 {
			t.Errorf("C=%g: B from simulated load %v vs exact %v", c, bs, be)
		}
	}
}

func TestHeavyTailSessionsOverdispersed(t *testing.T) {
	// Pareto session batches produce occupancy with variance well above
	// the mean — the qualitative regime where the paper's algebraic
	// distribution lives and reservations retain an advantage.
	cfg := Config{
		Capacity: 1e9,
		Util:     rigidFn(t),
		Policy:   BestEffort,
		Workload: sessions(t, 40000, 1000, 2, 2, 8),
		Samples:  1,
		Seed1:    101,
		Seed2:    102,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := res.AvgOccupancy
	variance := res.Occupancy.SquareTailMean(-1) - mean*mean
	if variance < 2*mean {
		t.Errorf("session occupancy variance %v not overdispersed vs mean %v", variance, mean)
	}
}

func TestRetrySimulation(t *testing.T) {
	// Mild blocking regime: capacity above the mean load, so retries
	// recover nearly all rejections at small total penalty.
	cfg := mmInfConfig(t, 110, Reservation, 13)
	cfg.Retry = &RetryConfig{MeanBackoff: 5, Penalty: 0.1, MaxAttempts: 50}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("a loss system at ~3% Erlang blocking must trigger retries")
	}
	if frac := float64(res.Rejected) / float64(res.Flows); frac > 0.005 {
		t.Errorf("final rejection fraction = %v, want ≈ 0", frac)
	}
	noRetry, err := Run(mmInfConfig(t, 110, Reservation, 13))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanUtility <= noRetry.MeanUtility {
		t.Errorf("retry utility %v should exceed no-retry %v at modest penalty",
			res.MeanUtility, noRetry.MeanUtility)
	}
}

func TestRetryStormDestroysUtility(t *testing.T) {
	// Undersized capacity (kmax < k̄) with impatient retries: blocked
	// flows hammer the link, attempts pile up, and per-flow penalties
	// swamp the recovered utility — the dynamic face of the paper's
	// retry-storm caveat.
	cfg := mmInfConfig(t, 95, Reservation, 13)
	cfg.Workload = mmInf(t, 10000, 500)
	cfg.Retry = &RetryConfig{MeanBackoff: 5, Penalty: 0.1, MaxAttempts: 50}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noRetry, err := Run(mmInfConfig(t, 95, Reservation, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanUtility >= noRetry.MeanUtility {
		t.Errorf("storm utility %v should fall below no-retry %v", res.MeanUtility, noRetry.MeanUtility)
	}
	if avg := float64(res.Retries) / float64(res.Flows); avg < 2 {
		t.Errorf("retries per flow = %v, expected a storm (≫ 1)", avg)
	}
}

func TestSamplingWorsensUtility(t *testing.T) {
	// Judging flows by the worst of S samples lowers measured utility.
	cfgA := mmInfConfig(t, 105, BestEffort, 17)
	cfgA.Samples = 1
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := mmInfConfig(t, 105, BestEffort, 17)
	cfgB.Samples = 10
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if b.MeanUtility >= a.MeanUtility {
		t.Errorf("S=10 utility %v should be below S=1 utility %v", b.MeanUtility, a.MeanUtility)
	}
}

func TestTimeAverageUtilityMode(t *testing.T) {
	cfg := mmInfConfig(t, 105, BestEffort, 19)
	cfg.Samples = 0
	cfg.Util = utility.NewAdaptive()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MeanUtility > 0 && res.MeanUtility < 1) {
		t.Errorf("time-average utility out of range: %v", res.MeanUtility)
	}
}

func TestPolicyString(t *testing.T) {
	if BestEffort.String() != "best-effort" || Reservation.String() != "reservation" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func TestArrivalLoadIsPASTASizeBiased(t *testing.T) {
	// By PASTA, arrivals see the stationary occupancy; counting the
	// arriving flow itself, the experienced level matches the size-biased
	// view of the stationary Poisson law (which for Poisson is a unit
	// shift).
	res, err := Run(mmInfConfig(t, 1e9, BestEffort, 91))
	if err != nil {
		t.Fatal(err)
	}
	if res.ArrivalLoad == nil {
		t.Fatal("no arrival-load histogram")
	}
	base, err := dist.NewPoisson(100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.NewSizeBiased(base)
	if err != nil {
		t.Fatal(err)
	}
	if mean := res.ArrivalLoad.Mean(); math.Abs(mean-want.Mean()) > 2 {
		t.Errorf("arrival-load mean = %v, size-biased mean = %v", mean, want.Mean())
	}
	var sup float64
	for k := 60; k <= 140; k++ {
		if d := math.Abs(res.ArrivalLoad.CDF(k) - want.CDF(k)); d > sup {
			sup = d
		}
	}
	if sup > 0.03 {
		t.Errorf("arrival-load CDF sup-distance from size-biased = %v", sup)
	}
}

func TestHeterogeneousClasses(t *testing.T) {
	// Two classes at ~equal weight: standard rigid flows and "fat" rigid
	// flows needing twice the share. Per-class utilities must differ and
	// match the analytical per-class prediction E_Q[π_i(C/(k·d_i))].
	rigid := rigidFn(t)
	cfg := mmInfConfig(t, 150, BestEffort, 23)
	cfg.Util = nil
	cfg.Workload = mmInfClasses(t, "class thin weight=1\nclass fat weight=1 demand=2\n")
	cfg.Classes = []utility.Function{rigid, rigid}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClassUtility) != 2 || len(res.ClassFlows) != 2 {
		t.Fatalf("missing per-class results: %+v", res)
	}
	if res.ClassFlows[0]+res.ClassFlows[1] != res.Flows {
		t.Errorf("class flows %v do not sum to %d", res.ClassFlows, res.Flows)
	}
	// Roughly equal class split.
	frac := float64(res.ClassFlows[0]) / float64(res.Flows)
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("class split = %v, want ≈ 0.5", frac)
	}
	// Thin flows do better than fat flows at C = 1.5k̄.
	if !(res.ClassUtility[0] > res.ClassUtility[1]) {
		t.Errorf("class utilities %v: thin flows should beat fat flows", res.ClassUtility)
	}
	// Analytical cross-check: class i behaves like a rigid utility with
	// demand d_i under the Poisson load.
	load, err := dist.NewPoisson(100)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []float64{1, 2} {
		scaled, err := utility.NewRigid(d)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(load, scaled)
		if err != nil {
			t.Fatal(err)
		}
		want := m.BestEffort(150)
		if math.Abs(res.ClassUtility[i]-want) > 0.04 {
			t.Errorf("class %d utility = %v, model predicts %v", i, res.ClassUtility[i], want)
		}
	}
}

func TestHeterogeneousClassesReservation(t *testing.T) {
	// With classes and no explicit Util, kmax comes from the population
	// mixture.
	cfg := mmInfConfig(t, 110, Reservation, 29)
	cfg.Util = nil
	cfg.Workload = mmInfClasses(t, "class rigid weight=3\nclass adaptive weight=1\n")
	cfg.Classes = []utility.Function{rigidFn(t), utility.NewAdaptive()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakOccupancy > 110 {
		t.Errorf("peak %d exceeds mixture kmax 110", res.PeakOccupancy)
	}
	if res.ClassUtility[0] <= 0 || res.ClassUtility[1] <= 0 {
		t.Errorf("class utilities %v should be positive", res.ClassUtility)
	}
}

func TestHeterogeneousClassValidation(t *testing.T) {
	cfg := mmInfConfig(t, 100, BestEffort, 1)
	cfg.Util = nil
	cfg.Workload = mmInfClasses(t, "class only weight=1\n")
	cfg.Classes = []utility.Function{nil}
	if _, err := Run(cfg); err == nil {
		t.Error("nil class utility should fail")
	}
	cfg.Classes = []utility.Function{rigidFn(t), rigidFn(t)}
	if _, err := Run(cfg); err == nil {
		t.Error("more class utilities than scenario classes should fail")
	}
	cfg.Classes = nil
	if _, err := Run(cfg); err == nil {
		t.Error("classes with neither their own nor a run-wide utility should fail")
	}
}

func TestHeterogeneousTimeAverageMode(t *testing.T) {
	cfg := mmInfConfig(t, 120, BestEffort, 31)
	cfg.Samples = 0
	cfg.Util = nil
	cfg.Workload = mmInfClasses(t, "class thin weight=1\nclass fat weight=1 demand=3\n")
	cfg.Classes = []utility.Function{utility.NewAdaptive(), utility.NewAdaptive()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.ClassUtility[0] > res.ClassUtility[1]) {
		t.Errorf("time-average class utilities %v: low-demand class should win", res.ClassUtility)
	}
	for i, u := range res.ClassUtility {
		if u <= 0 || u > 1 {
			t.Errorf("class %d time-average utility out of range: %v", i, u)
		}
	}
}

func TestMGInfInsensitivity(t *testing.T) {
	// M/G/∞ insensitivity: with Poisson arrivals, even heavy-tailed
	// (Pareto) holding times leave the stationary occupancy Poisson — the
	// load *process* must be non-Poisson (e.g. session batches) to produce
	// the paper's algebraic loads. This validates the paper's focus on the
	// load distribution rather than holding-time shapes.
	res, err := Run(Config{
		Capacity: 1e9,
		Util:     rigidFn(t),
		Policy:   BestEffort,
		// Pareto(10/3, 1.5) holds, mean 10; a long warmup, because heavy
		// tails converge slowly.
		Workload: onePhase(t, 60000, 5000, workload.ArrivalSpec{Kind: "poisson", Rate: 10}, workload.HoldSpec{Kind: "pareto", Mean: 10, Shape: 1.5}),
		Samples:  1,
		Seed1:    41,
		Seed2:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := res.AvgOccupancy
	variance := res.Occupancy.SquareTailMean(-1) - mean*mean
	if math.Abs(mean-100) > 6 {
		t.Errorf("M/G/∞ mean occupancy = %v, want ≈ 100", mean)
	}
	// Poisson-like: variance/mean ≈ 1 (tolerant: heavy-tailed holding
	// mixes slowly).
	if ratio := variance / mean; ratio < 0.7 || ratio > 1.6 {
		t.Errorf("M/G/∞ variance/mean = %v, want ≈ 1 (insensitivity)", ratio)
	}
}

func TestRunReplications(t *testing.T) {
	cfg := mmInfConfig(t, 110, Reservation, 3)
	cfg.Workload = mmInf(t, 4000, 200)
	rep, err := RunReplicationsWorkers(cfg, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgOccupancy.N != 5 {
		t.Errorf("N = %d", rep.AvgOccupancy.N)
	}
	if math.Abs(rep.AvgOccupancy.Mean-100) > 5 {
		t.Errorf("occupancy = %v", rep.AvgOccupancy.Mean)
	}
	if rep.AvgOccupancy.StdErr <= 0 || rep.AvgOccupancy.StdErr > 5 {
		t.Errorf("stderr = %v", rep.AvgOccupancy.StdErr)
	}
	// Blocking at C = 110 under Erlang B ≈ 0.028; the CI should cover it.
	want := erlangB(100, 110)
	if math.Abs(rep.BlockingRate.Mean-want) > 4*rep.BlockingRate.StdErr+0.01 {
		t.Errorf("blocking %v ± %v vs Erlang B %v", rep.BlockingRate.Mean, rep.BlockingRate.StdErr, want)
	}
	if _, err := RunReplicationsWorkers(cfg, 1, 0); err == nil {
		t.Error("n = 1 should fail")
	}
}
