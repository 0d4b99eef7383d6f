package beqos_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"beqos"
	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/utility"
)

func TestFacadeEndToEnd(t *testing.T) {
	load, err := beqos.ExponentialLoad(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := beqos.NewModel(load, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	b, r := m.BestEffort(200), m.Reservation(200)
	if !(r > b && b > 0 && r < 1) {
		t.Errorf("B=%v R=%v out of expected order", b, r)
	}
	if d := m.PerformanceGap(200); math.Abs(d-(r-b)) > 1e-15 {
		t.Errorf("gap inconsistent")
	}
	g, err := m.BandwidthGap(200)
	if err != nil || g <= 0 {
		t.Errorf("bandwidth gap %v, %v", g, err)
	}
	if k := m.KMax(200); k != 200 {
		t.Errorf("kmax = %d, want 200", k)
	}
	if mean := m.MeanLoad(); math.Abs(mean-100) > 1e-6 {
		t.Errorf("mean = %v", mean)
	}
}

func TestFacadeZeroValuesRejected(t *testing.T) {
	if _, err := beqos.NewModel(beqos.Load{}, beqos.RigidUtility()); err == nil {
		t.Error("zero Load should be rejected")
	}
	var u beqos.Utility
	load, _ := beqos.PoissonLoad(10)
	if _, err := beqos.NewModel(load, u); err == nil {
		t.Error("zero Utility should be rejected")
	}
}

func TestFacadeLoadConstructors(t *testing.T) {
	if _, err := beqos.PoissonLoad(-1); err == nil {
		t.Error("bad Poisson mean should fail")
	}
	if _, err := beqos.ExponentialLoad(0); err == nil {
		t.Error("bad exponential mean should fail")
	}
	if _, err := beqos.AlgebraicLoad(2, 100); err == nil {
		t.Error("z = 2 should fail")
	}
	if _, err := beqos.EmpiricalLoad(nil); err == nil {
		t.Error("empty empirical should fail")
	}
	l, err := beqos.AlgebraicLoad(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if l.PMF(1) <= 0 || l.TailProb(100) <= 0 {
		t.Error("algebraic load has empty support")
	}
}

func TestFacadeUtilityConstructors(t *testing.T) {
	if _, err := beqos.RampUtility(0); err == nil {
		t.Error("ramp a = 0 should fail")
	}
	if _, err := beqos.SlowTailUtility(-1); err == nil {
		t.Error("negative τ should fail")
	}
	for _, u := range []beqos.Utility{beqos.RigidUtility(), beqos.AdaptiveUtility(), beqos.ElasticUtility()} {
		if u.Name() == "" {
			t.Error("empty utility name")
		}
		if v := u.Eval(1e9); v < 0.99 {
			t.Errorf("%s: π(huge) = %v", u.Name(), v)
		}
	}
}

func TestFacadeWelfare(t *testing.T) {
	load, err := beqos.PoissonLoad(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := beqos.NewModel(load, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.ProvisionBestEffort(0.1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.ProvisionReservation(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Welfare < pb.Welfare {
		t.Errorf("W_R %v below W_B %v", pr.Welfare, pb.Welfare)
	}
	g, err := m.GammaEqualize(0.1)
	if err != nil || g < 1 {
		t.Errorf("γ = %v, %v", g, err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	load, err := beqos.ExponentialLoad(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := beqos.NewModel(load, beqos.AdaptiveUtility())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.Sampling(10)
	if err != nil {
		t.Fatal(err)
	}
	if d := sp.PerformanceGap(200); d <= m.PerformanceGap(200) {
		t.Errorf("sampling gap %v should exceed basic %v", d, m.PerformanceGap(200))
	}
	rt, err := m.Retry(0.1)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := rt.Equilibrium(200)
	if err != nil {
		t.Fatal(err)
	}
	if eq.EffectiveMean < 100 {
		t.Errorf("inflated mean %v below k̄", eq.EffectiveMean)
	}
	if b, want := rt.BestEffort(200), m.BestEffort(200); b != want {
		t.Errorf("retry B(200) = %v, want the basic model's %v: best effort never retries", b, want)
	}
	// γ(p) under each extension is its internal twin's.
	exp, err := dist.NewExponentialMean(100)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.New(exp, utility.NewAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	csp, err := core.NewSampling(cm, 10)
	if err != nil {
		t.Fatal(err)
	}
	crt, err := core.NewRetry(cm, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name      string
		got, want func(float64) (float64, error)
	}{
		{"sampling", sp.GammaEqualize, csp.GammaEqualize},
		{"retry", rt.GammaEqualize, crt.GammaEqualize},
	} {
		got, err := g.got(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := g.want(0.1); err != nil || got != want {
			t.Errorf("%s γ(0.1) = %v, internal twin %v (%v)", g.name, got, want, err)
		}
	}
	if _, err := m.Sampling(0); err == nil {
		t.Error("S = 0 should fail")
	}
	if _, err := m.Retry(-1); err == nil {
		t.Error("negative α should fail")
	}
}

func TestFacadeSimulate(t *testing.T) {
	traffic, err := beqos.PoissonTraffic(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := beqos.Simulate(beqos.SimConfig{
		Capacity: 120,
		Util:     beqos.RigidUtility(),
		Traffic:  traffic,
		Horizon:  5000,
		Warmup:   200,
		Samples:  1,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanOccupancy-100) > 5 {
		t.Errorf("occupancy %v, want ≈ 100", res.MeanOccupancy)
	}
	// The measured load plugs straight back into the analytical model.
	m, err := beqos.NewModel(res.MeasuredLoad, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	if b := m.BestEffort(120); !(b > 0.5 && b <= 1) {
		t.Errorf("B from measured load = %v", b)
	}
	// Validation errors.
	if _, err := beqos.Simulate(beqos.SimConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	if _, err := beqos.SessionTraffic(0, 1, 1.5, 10); err == nil {
		t.Error("bad session traffic should fail")
	}
}

func TestFacadeAdmissionProtocol(t *testing.T) {
	srv, err := beqos.NewAdmissionServer(2, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	if srv.KMax() != 2 {
		t.Errorf("kmax = %d", srv.KMax())
	}
	if twin := benchServer(t, 2); srv.Shards() != twin.Shards() {
		t.Errorf("shards = %d, internal twin %d", srv.Shards(), twin.Shards())
	}
	var mu sync.Mutex
	var logged []string
	srv.SetLogf(func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	client := beqos.NewAdmissionClient(cEnd)
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Grants carry the worst-case share C/kmax = 2/2, not the instantaneous
	// C/active.
	ok, share, err := client.Reserve(ctx, 1, 1)
	if err != nil || !ok || share != 1 {
		t.Fatalf("reserve: ok=%v share=%v err=%v", ok, share, err)
	}
	kmax, active, err := client.Stats(ctx)
	if err != nil || kmax != 2 || active != 1 {
		t.Fatalf("stats: %d %d %v", kmax, active, err)
	}
	// The server logged the grant before it answered the stats request
	// that followed it on the connection.
	mu.Lock()
	if len(logged) == 0 || !strings.Contains(logged[0], "grant flow 1") {
		t.Errorf("log = %q, want the grant of flow 1 first", logged)
	}
	mu.Unlock()
	if err := client.Teardown(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Retry path through the facade.
	ok, _, retries, err := client.ReserveWithRetry(ctx, 2, 1, beqos.AdmissionRetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 1,
	})
	if err != nil || !ok || retries != 0 {
		t.Fatalf("retry reserve: ok=%v retries=%d err=%v", ok, retries, err)
	}
}

// TestFacadeDebugHandler serves AdmissionServer.DebugHandler over HTTP
// after one granted reservation: both metric formats count the grant, and
// the liveness probe answers.
func TestFacadeDebugHandler(t *testing.T) {
	srv, err := beqos.NewAdmissionServer(2, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	client := beqos.NewAdmissionClient(cEnd)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if ok, _, err := client.Reserve(ctx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: ok=%v err=%v", ok, err)
	}

	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, read error %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "\nresv_grants_total 1\n") {
		t.Errorf("/metrics does not count one grant:\n%s", body)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if g := snap["resv_grants_total"]; g != 1.0 {
		t.Errorf("/metrics.json resv_grants_total = %v, want 1", g)
	}
	if body := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want \"ok\\n\"", body)
	}
}

func TestFacadeAdmissionDatagram(t *testing.T) {
	srv, err := beqos.NewAdmissionServer(2, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() { _ = srv.ServePacket(pc) }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := beqos.DialAdmissionUDP(ctx, pc.LocalAddr().String(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ok, share, err := client.Reserve(ctx, 1, 1)
	if err != nil || !ok || share != 1 {
		t.Fatalf("reserve: ok=%v share=%v err=%v", ok, share, err)
	}
	kmax, active, err := client.Stats(ctx)
	if err != nil || kmax != 2 || active != 1 {
		t.Fatalf("stats: %d %d %v", kmax, active, err)
	}
	if err := client.Teardown(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if srv.Active() != 0 {
		t.Errorf("server still holds %d reservations", srv.Active())
	}
}

func TestFacadeMixtures(t *testing.T) {
	light, err := beqos.ExponentialLoad(100)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := beqos.AlgebraicLoad(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	mixedLoad, err := beqos.MixtureLoad([]beqos.Load{light, heavy}, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mixedLoad.Mean()-100) > 1e-6 {
		t.Errorf("mixture mean = %v", mixedLoad.Mean())
	}
	mixedUtil, err := beqos.MixtureUtility([]beqos.UtilityClass{
		{Util: beqos.RigidUtility(), Weight: 1, Demand: 1},
		{Util: beqos.AdaptiveUtility(), Weight: 1, Demand: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := beqos.NewModel(mixedLoad, mixedUtil)
	if err != nil {
		t.Fatal(err)
	}
	b, r := m.BestEffort(200), m.Reservation(200)
	if !(r >= b && b > 0 && r <= 1) {
		t.Errorf("mixture model: B=%v R=%v", b, r)
	}
	// Error paths.
	if _, err := beqos.MixtureLoad([]beqos.Load{{}}, []float64{1}); err == nil {
		t.Error("zero-value load component should fail")
	}
	if _, err := beqos.MixtureUtility([]beqos.UtilityClass{{Weight: 1}}); err == nil {
		t.Error("zero-value utility class should fail")
	}
}

func TestFacadeSamplingWithKMax(t *testing.T) {
	load, err := beqos.ExponentialLoad(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := beqos.NewModel(load, beqos.ElasticUtility())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.SamplingWithKMax(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d := sp.PerformanceGap(100); d <= 0 {
		t.Errorf("footnote 9: elastic gap under sampling with kmax should be positive, got %v", d)
	}
	if _, err := m.SamplingWithKMax(10, 0); err == nil {
		t.Error("kmax = 0 should fail")
	}
}

func TestFacadeTraceLoad(t *testing.T) {
	load, err := beqos.TraceLoad([]int{90, 100, 110, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load.Mean()-100) > 1e-12 {
		t.Errorf("trace mean = %v", load.Mean())
	}
	m, err := beqos.NewModel(load, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	if b := m.BestEffort(110); b != 1 {
		t.Errorf("B(110) = %v, want 1 (every trace level fits)", b)
	}
	if _, err := beqos.TraceLoad(nil); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestFacadeFixedLoad(t *testing.T) {
	k, v, finite := beqos.FixedLoadOptimum(beqos.RigidUtility(), 100)
	if !finite || k != 100 || v != 100 {
		t.Errorf("rigid optimum = (%d, %v, %v)", k, v, finite)
	}
	if _, _, finite := beqos.FixedLoadOptimum(beqos.ElasticUtility(), 100); finite {
		t.Error("elastic should have no finite optimum")
	}
	if got := beqos.FixedLoadTotalUtility(beqos.RigidUtility(), 100, 60); got != 60 {
		t.Errorf("V(60) = %v", got)
	}
}

func TestFacadeAdmissionSoftState(t *testing.T) {
	srv, err := beqos.NewAdmissionServerTTL(2, beqos.RigidUtility(), 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	client := beqos.NewAdmissionClient(cEnd)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if ok, _, err := client.Reserve(ctx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	if ttl, err := client.Refresh(ctx, 1); err != nil || ttl != 80*time.Millisecond {
		t.Fatalf("refresh: ttl=%v err=%v", ttl, err)
	}
	// KeepAlive holds the reservation for three TTLs, and returns nil
	// once its context ends.
	kctx, stop := context.WithCancel(ctx)
	kept := make(chan error, 1)
	go func() { kept <- client.KeepAlive(kctx, 1, 20*time.Millisecond) }()
	time.Sleep(3 * 80 * time.Millisecond)
	if n := srv.Active(); n != 1 {
		t.Errorf("active = %d after three TTLs of keep-alive, want 1", n)
	}
	stop()
	if err := <-kept; err != nil {
		t.Fatalf("keep-alive: %v", err)
	}
	// Stop refreshing; the reservation must lapse.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("reservation did not expire through the facade")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFacadeBandwidthAdmission(t *testing.T) {
	srv, err := beqos.NewAdmissionServerBandwidth(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	client := beqos.NewAdmissionClient(cEnd)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ok, rate, err := client.Reserve(ctx, 1, 7)
	if err != nil || !ok || rate != 7 {
		t.Fatalf("reserve 7: ok=%v rate=%v err=%v", ok, rate, err)
	}
	if ok, _, _ := client.Reserve(ctx, 2, 4); ok {
		t.Error("4 should not fit in the remaining 3")
	}
	if got := srv.Allocated(); got != 7 {
		t.Errorf("allocated = %v", got)
	}
	if _, err := beqos.NewAdmissionServerBandwidth(0, 0); err == nil {
		t.Error("zero capacity should fail")
	}
}
