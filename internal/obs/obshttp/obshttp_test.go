package obshttp

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"beqos/internal/obs"
)

// get performs one request against the debug mux and returns status + body.
func get(t *testing.T, mux *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := mux.Client().Get(mux.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := obs.New()
	r.Counter("beqos_test_total", "help").Add(9)
	r.Histogram("beqos_test_ns", "").Record(512)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	code, body, ctype := get(t, srv, "/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	_ = ctype

	code, body, ctype = get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "beqos_test_total 9") {
		t.Errorf("/metrics = %d, body:\n%s", code, body)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content-type = %q", ctype)
	}

	code, body, ctype = get(t, srv, "/metrics.json")
	if code != 200 || !strings.Contains(body, `"beqos_test_total": 9`) {
		t.Errorf("/metrics.json = %d, body:\n%s", code, body)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/metrics.json content-type = %q", ctype)
	}

	code, body, _ = get(t, srv, "/metrics?format=json")
	if code != 200 || !strings.Contains(body, `"beqos_test_total": 9`) {
		t.Errorf("/metrics?format=json = %d, body:\n%s", code, body)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, body:\n%.200s", code, body)
	}

	code, _, _ = get(t, srv, "/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}
