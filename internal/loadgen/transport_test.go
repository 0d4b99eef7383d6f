package loadgen

import (
	"testing"
	"time"

	"beqos/internal/utility"
)

// rigidConfig is the shared operating point for the transport matrix:
// rigid utility at C = 8 (kmax = 8) under offered load k̄ = 6 — small
// enough to keep every transport variant fast, loaded enough (k̄ near
// kmax) that admission decisions actually bite.
func rigidConfig(t *testing.T) (Config, utility.Function) {
	t.Helper()
	util, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Capacity: 8,
		Util:     util,
		Conns:    2,
		Workload: stationary(t, 12, 0.5, 60, 0),
		Seed1:    7, Seed2: 9,
	}, util
}

// TestStreamTransportMatchesModel runs the harness over the stream
// transport, whose client multiplexes the flows of two connections: the
// cross-validation must hold, and the server's counters must agree with
// the client's — the client may not lose, duplicate, or misroute a reply.
func TestStreamTransportMatchesModel(t *testing.T) {
	cfg, util := rigidConfig(t)
	srv := newServer(t, cfg.Capacity, util)
	cfg.Server = srv
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies != 0 || res.FinalActive != 0 {
		t.Errorf("anomalies = %d, final active = %d, want 0, 0", res.Anomalies, res.FinalActive)
	}
	cr, err := CrossCheck(res, newModel(t, 6, util), cfg.Capacity)
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
	m := srv.Metrics()
	if got, want := m.Grants.Load(), uint64(res.Grants); got != want {
		t.Errorf("server grants = %d, client grants = %d — must agree exactly", got, want)
	}
	if got, want := m.Denials.Load(), uint64(res.Denied); got != want {
		t.Errorf("server denials = %d, client denials = %d — must agree exactly", got, want)
	}
}

// TestStreamTransportWithDrops runs the connection-fault injection over
// the stream transport: closing a connection must release every flow it
// carried (fate-sharing), and the harness must recover on a fresh
// connection.
func TestStreamTransportWithDrops(t *testing.T) {
	cfg, util := rigidConfig(t)
	srv := newServer(t, cfg.Capacity, util)
	cfg.Server = srv
	cfg.DropEvery = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 || res.Reconnects != res.Drops {
		t.Errorf("drops = %d, reconnects = %d; want ≥ 1 drop and a reconnect per drop", res.Drops, res.Reconnects)
	}
	if res.Anomalies != 0 || res.FinalActive != 0 {
		t.Errorf("anomalies = %d, final active = %d, want 0, 0", res.Anomalies, res.FinalActive)
	}
}

// TestUDPTransportMatchesModel runs the harness over the datagram
// transport with no loss: the cross-validation and the exact
// client/server counter agreement must both hold.
func TestUDPTransportMatchesModel(t *testing.T) {
	cfg, util := rigidConfig(t)
	srv := newServer(t, cfg.Capacity, util)
	cfg.Server = srv
	cfg.Transport = "udp"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies != 0 || res.FinalActive != 0 {
		t.Errorf("anomalies = %d, final active = %d, want 0, 0", res.Anomalies, res.FinalActive)
	}
	if res.UDPRetransmits != 0 {
		t.Errorf("retransmits = %d on a lossless loopback, want 0", res.UDPRetransmits)
	}
	cr, err := CrossCheck(res, newModel(t, 6, util), cfg.Capacity)
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
	m := srv.Metrics()
	if got, want := m.Grants.Load(), uint64(res.Grants); got != want {
		t.Errorf("server grants = %d, client grants = %d — must agree exactly", got, want)
	}
	if dup := m.DupReserves.Load(); dup != 0 {
		t.Errorf("dup reserves = %d without loss, want 0", dup)
	}
}

// TestUDPTransportLossTransparent injects deterministic packet loss and
// demands the retransmit layer make it invisible: every statistical field
// of the Result must be bit-identical to the lossless run with the same
// seed, the server's admission count must still agree exactly with the
// client's (retransmitted reserves answered from the live grant, never
// re-admitted), and the injected loss must actually have forced
// retransmissions.
func TestUDPTransportLossTransparent(t *testing.T) {
	base, util := rigidConfig(t)
	base.Transport = "udp"
	base.UDPTimeout = 5 * time.Millisecond // loopback: only lost flights wait

	clean := base
	clean.Server = newServer(t, base.Capacity, util)
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}

	lossy := base
	srv := newServer(t, base.Capacity, util)
	lossy.Server = srv
	lossy.UDPLossEvery = 10
	got, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}

	if got.UDPRetransmits == 0 {
		t.Fatal("no retransmits under 10% send loss; the fault injection exercised nothing")
	}
	if dup := srv.Metrics().DupReserves.Load(); dup == 0 {
		t.Error("no dup reserves on the server; no grant was ever re-sent")
	}
	if g, w := srv.Metrics().Grants.Load(), uint64(got.Grants); g != w {
		t.Errorf("server grants = %d, client grants = %d — retransmits must not double-admit", g, w)
	}
	// Loss transparency: the virtual-time measurements may not move at all.
	if got.Flows != want.Flows || got.FirstDenied != want.FirstDenied ||
		got.Grants != want.Grants || got.Teardowns != want.Teardowns ||
		got.OverloadFraction != want.OverloadFraction ||
		got.MeanUtility != want.MeanUtility ||
		got.MeasuredMeanLoad != want.MeasuredMeanLoad {
		t.Errorf("lossy run diverged from lossless run:\nlossless: flows=%d denied=%d grants=%d teardowns=%d overload=%g util=%g load=%g\nlossy:    flows=%d denied=%d grants=%d teardowns=%d overload=%g util=%g load=%g",
			want.Flows, want.FirstDenied, want.Grants, want.Teardowns, want.OverloadFraction, want.MeanUtility, want.MeasuredMeanLoad,
			got.Flows, got.FirstDenied, got.Grants, got.Teardowns, got.OverloadFraction, got.MeanUtility, got.MeasuredMeanLoad)
	}
	if got.Anomalies != 0 || got.FinalActive != 0 {
		t.Errorf("anomalies = %d, final active = %d, want 0, 0", got.Anomalies, got.FinalActive)
	}
}

// TestTransportConfigValidation pins the transport-specific Config rules.
func TestTransportConfigValidation(t *testing.T) {
	base, util := rigidConfig(t)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown transport", func(c *Config) { c.Transport = "quic" }},
		{"udp with DropEvery", func(c *Config) { c.Transport = "udp"; c.DropEvery = 5 }},
		{"loss on classic", func(c *Config) { c.UDPLossEvery = 10 }},
		{"loss every packet", func(c *Config) { c.Transport = "udp"; c.UDPLossEvery = 1 }},
		{"negative loss", func(c *Config) { c.Transport = "udp"; c.UDPLossEvery = -3 }},
		{"negative udp timeout", func(c *Config) { c.Transport = "udp"; c.UDPTimeout = -5 * time.Millisecond }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Server = newServer(t, base.Capacity, util)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}
