package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServerRoutes drives RegisterRoutes on a fresh mux (no socket): the
// /metrics exposition must parse, /healthz must report ok, and the
// pprof index must answer.
func TestServerRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zivsim_sweep_jobs_queued_total", "Jobs.").Add(4)
	h := http.NewServeMux()
	RegisterRoutes(h, reg, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	families, samples, err := CheckExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if families != 1 || samples != 1 {
		t.Fatalf("/metrics = %d families, %d samples", families, samples)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", rec.Code)
	}
}
