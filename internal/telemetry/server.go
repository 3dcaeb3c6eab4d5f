// The telemetry endpoints: /metrics (Prometheus text exposition of the
// registry), /healthz (liveness JSON), and net/http/pprof under
// /debug/pprof. Each serving surface — zivsim -telemetry-addr and
// zivsimd — mounts them on its own mux and runs its own http.Server.
package telemetry

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// RegisterRoutes mounts the base telemetry endpoints on mux: /metrics
// (Prometheus text exposition of reg), /healthz (liveness/readiness
// JSON) and the pprof family under /debug/pprof/. It is the shared
// mount point for every serving surface — zivsim -telemetry-addr and
// cmd/zivsimd both build their muxes on it.
//
// health, when non-nil, supplies the /healthz status string per
// request; any value other than "ok" is reported with 503 so load
// balancers stop routing to a draining server. A nil health always
// reports "ok".
func RegisterRoutes(mux *http.ServeMux, reg *Registry, health func() string) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteExposition(w, reg); err != nil {
			// The response is already streaming; nothing to do but stop.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		status := "ok"
		if health != nil {
			status = health()
		}
		w.Header().Set("Content-Type", "application/json")
		if status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"status\":%q}\n", status)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
