// Package obshttp serves an obs.Registry over HTTP: the debug endpoints
// of `beqos serve -debug-addr`, `beqos cluster -debug-addr` and
// AdmissionServer.DebugHandler. It lives apart from obs so that the
// packages that only record into instruments (the serving plane, the
// cluster, the load harness) link no HTTP, TLS or x509 code.
package obshttp

import (
	"net/http"
	"net/http/pprof"

	"beqos/internal/obs"
)

// Handler serves the registry: Prometheus text by default, expvar-style
// JSON with `?format=json` (or via the /metrics.json alias DebugMux adds).
func Handler(r *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// DebugMux returns the serving plane's debug endpoint catalog, suitable
// for an operator-only listener (`beqos serve -debug-addr`):
//
//	/metrics       Prometheus text exposition
//	/metrics.json  expvar-style JSON snapshot
//	/healthz       liveness probe ("ok")
//	/debug/pprof/  the standard Go profiling endpoints
//
// The pprof handlers are mounted explicitly rather than via the
// net/http/pprof side-effect import, so nothing leaks onto
// http.DefaultServeMux.
func DebugMux(r *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
