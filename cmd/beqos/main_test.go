package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beqos"
)

func TestCmdEval(t *testing.T) {
	if err := cmdEval([]string{"-load", "exponential", "-util", "rigid", "-capacity", "200"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-load", "nope"}); err == nil {
		t.Error("unknown load should fail")
	}
	if err := cmdEval([]string{"-util", "nope"}); err == nil {
		t.Error("unknown utility should fail")
	}
}

func TestCmdSweep(t *testing.T) {
	if err := cmdSweep([]string{"-load", "poisson", "-cmin", "50", "-cmax", "150", "-step", "50"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-cmin", "100", "-cmax", "50"}); err == nil {
		t.Error("inverted range should fail")
	}
	if err := cmdSweep([]string{"-step", "0"}); err == nil {
		t.Error("zero step should fail")
	}
	if err := cmdSweep([]string{"-csv", "-cmin", "100", "-cmax", "100", "-step", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdWelfare(t *testing.T) {
	if err := cmdWelfare([]string{"-load", "exponential", "-price", "0.05"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWelfare([]string{"-price", "-1"}); err == nil {
		t.Error("negative price should fail")
	}
}

func TestCmdSim(t *testing.T) {
	if err := cmdSim([]string{"-capacity", "120", "-horizon", "2000", "-util", "adaptive"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSim([]string{"-capacity", "120", "-horizon", "2000", "-reserve"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSim([]string{"-capacity", "0"}); err == nil {
		t.Error("zero capacity should fail")
	}
	for _, name := range []string{"typo", "elastic"} {
		if err := cmdSim([]string{"-util", name}); err == nil || err.Error() != utilityError(name).Error() {
			t.Errorf("sim -util %s: error %v, want %q", name, err, utilityError(name))
		}
	}
}

func TestServeAndReserveOverLoopback(t *testing.T) {
	// Start a server the way cmdServe does, then drive it with cmdReserve.
	srv, err := beqos.NewAdmissionServer(3, beqos.RigidUtility())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()

	err = cmdReserve([]string{
		"-addr", ln.Addr().String(),
		"-flows", "5",
		"-hold", "0s",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The client connection closed, so reservations were released.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Active() != 0 {
		t.Errorf("server still holds %d reservations", srv.Active())
	}
}

func TestCmdReserveConnectError(t *testing.T) {
	err := cmdReserve([]string{"-addr", "127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "dial") {
		t.Errorf("expected dial error, got %v", err)
	}
}

func TestCmdLoad(t *testing.T) {
	// A small in-process acceptance run with fault injection, the retry
	// path, and the soft-state probe. cmdLoad returns an error when any
	// cross-validation check falls outside 3σ, so a nil error IS the
	// assertion.
	err := cmdLoad([]string{
		"-capacity", "10", "-util", "adaptive", "-mean", "10", "-hold", "0.5",
		"-duration", "30", "-conns", "2", "-seed", "3",
		"-drop-every", "9", "-retries", "2", "-probe-ttl", "150ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	// A light run at C = 100 sees no blocking and no denial at all while
	// the model predicts ~1e-24: the tail checks must take the binomial
	// fallback rather than fail as exact mismatches. So must the utility
	// check of a light rigid run, whose every flow scores 1 against an
	// R(C) just below 1.
	if err := cmdLoad([]string{"-mean", "30", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLoad([]string{"-capacity", "8", "-util", "rigid", "-mean", "2", "-hold", "0.5", "-duration", "200", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLoad([]string{"-util", "elastic"}); err == nil {
		t.Error("elastic utility should fail (no admission threshold)")
	}
	if err := cmdLoad([]string{"-mean", "0"}); err == nil {
		t.Error("zero mean should fail")
	}
	if err := cmdLoad([]string{"-capacity", "-5"}); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestCmdWorkload(t *testing.T) {
	specs := filepath.Join("..", "..", "specs")
	if err := cmdWorkload([]string{specs}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWorkload([]string{filepath.Join(specs, "baseline.spec")}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWorkload([]string{}); err == nil {
		t.Error("no arguments should fail")
	}
	if err := cmdWorkload([]string{filepath.Join(specs, "no-such.spec")}); err == nil {
		t.Error("missing spec should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.spec")
	if err := os.WriteFile(bad, []byte("scenario broken\nphase p 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdWorkload([]string{bad}); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestCmdSimWorkload(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "flashcrowd.spec")
	if err := cmdSim([]string{"-capacity", "120", "-util", "adaptive", "-reserve", "-workload", spec}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSim([]string{"-workload", "no-such.spec"}); err == nil {
		t.Error("missing spec should fail")
	}
}

func TestCmdLoadWorkload(t *testing.T) {
	// The oracle is live here: a nil error means baseline.spec, one
	// stationary segment, passed the run battery, and every enforceable
	// phase of flashcrowd.spec its per-phase battery, all within 3σ.
	for _, spec := range []string{"baseline.spec", "flashcrowd.spec"} {
		path := filepath.Join("..", "..", "specs", spec)
		if err := cmdLoad([]string{"-capacity", "100", "-util", "adaptive", "-workload", path, "-seed", "7"}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	if err := cmdLoad([]string{"-capacity", "100", "-workload", "no-such.spec"}); err == nil {
		t.Error("missing spec should fail")
	}
}

func TestCmdLoadOverTCP(t *testing.T) {
	// The harness must also work against a server across a real socket,
	// the way `beqos serve` + `beqos load -addr` compose.
	srv, err := beqos.NewAdmissionServer(10, beqos.AdaptiveUtility())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()
	err = cmdLoad([]string{
		"-addr", ln.Addr().String(),
		"-capacity", "10", "-util", "adaptive", "-mean", "10", "-hold", "0.5",
		"-duration", "30", "-seed", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Active() != 0 {
		t.Errorf("server still holds %d reservations after the harness", srv.Active())
	}
}

func TestCmdLoadTransports(t *testing.T) {
	// The classic transport with connection faults, and the udp transport
	// with injected datagram loss: both must still pass the 3σ
	// cross-validation and the exact grant agreement cmdLoad enforces.
	err := cmdLoad([]string{
		"-capacity", "10", "-util", "adaptive", "-mean", "10", "-hold", "0.5",
		"-duration", "30", "-conns", "2", "-seed", "3",
		"-transport", "classic", "-drop-every", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cmdLoad([]string{
		"-capacity", "10", "-util", "adaptive", "-mean", "10", "-hold", "0.5",
		"-duration", "30", "-conns", "2", "-seed", "3",
		"-transport", "udp", "-udp-loss", "20", "-udp-timeout", "10ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []string{"quic", "mux"} {
		out, err := captureStdout(t, func() error { return cmdLoad([]string{"-transport", tr}) })
		if err == nil || !strings.Contains(err.Error(), "unknown transport") {
			t.Errorf("-transport %s: got %v, want an unknown transport error", tr, err)
		}
		if out != "" {
			t.Errorf("-transport %s printed %q before failing", tr, out)
		}
	}
	if err := cmdLoad([]string{"-udp-loss", "10"}); err == nil {
		t.Error("-udp-loss without -transport udp should fail")
	}
}

func TestCmdLoadOverUDP(t *testing.T) {
	// The harness against a datagram server across a real socket, the way
	// `beqos serve -transport udp` + `beqos load -addr -transport udp`
	// compose.
	srv, err := beqos.NewAdmissionServer(10, beqos.AdaptiveUtility())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() { _ = srv.ServePacket(pc) }()
	err = cmdLoad([]string{
		"-addr", pc.LocalAddr().String(),
		"-capacity", "10", "-util", "adaptive", "-mean", "10", "-hold", "0.5",
		"-duration", "30", "-seed", "5", "-transport", "udp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Active() != 0 {
		t.Errorf("server still holds %d reservations after the harness", srv.Active())
	}
}

func TestCmdGamma(t *testing.T) {
	if err := cmdGamma([]string{"-load", "poisson", "-pmin", "0.05", "-pmax", "0.3", "-points", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGamma([]string{"-pmin", "0.5", "-pmax", "0.1"}); err == nil {
		t.Error("inverted price range should fail")
	}
	if err := cmdGamma([]string{"-csv", "-pmin", "0.05", "-pmax", "0.3", "-points", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdFixedLoad(t *testing.T) {
	if err := cmdFixedLoad([]string{"-capacity", "50", "-util", "rigid", "-ktop", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFixedLoad([]string{"-util", "elastic"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFixedLoad([]string{"-util", "nope"}); err == nil {
		t.Error("unknown utility should fail")
	}
}

func TestCmdEvalWithTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	if err := os.WriteFile(path, []byte("90 100 110 95 105 100 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-load", "trace", "-trace", path, "-capacity", "100"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-load", "trace"}); err == nil {
		t.Error("missing trace file should fail")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("12 potato"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-load", "trace", "-trace", bad}); err == nil {
		t.Error("non-numeric trace should fail")
	}
}

func TestCmdPlot(t *testing.T) {
	if err := cmdPlot([]string{"-load", "exponential", "-cmin", "50", "-cmax", "400", "-points", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlot([]string{"-gap", "-cmin", "50", "-cmax", "200", "-points", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlot([]string{"-cmin", "100", "-cmax", "50"}); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestCmdExtension(t *testing.T) {
	if err := cmdExtension([]string{"-load", "exponential", "-util", "adaptive", "-samples", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExtension([]string{"-load", "algebraic", "-util", "adaptive", "-retry-alpha", "0.1", "-capacity", "300"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExtension([]string{}); err == nil {
		t.Error("neither extension selected should fail")
	}
	if err := cmdExtension([]string{"-samples", "5", "-retry-alpha", "0.1"}); err == nil {
		t.Error("both extensions selected should fail")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed along with its error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	printed := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = saved
	_ = w.Close()
	return <-printed, err
}
