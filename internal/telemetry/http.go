package telemetry

import (
	"net/http"
	"net/http/pprof"
	"strconv"
)

// AdminConfig names everything the admin HTTP surface can expose. Any
// field may be nil; the corresponding endpoint then serves an empty
// document rather than failing, so a partially-configured daemon still
// exposes what it has.
type AdminConfig struct {
	Registry *Registry
	Tracer   *Tracer
	Latency  *LatencyTracker
	Flight   *FlightRecorder
	SLO      *SLOTracker
	SlowLog  *SlowQueryLog
}

// NewAdminMux assembles the operational HTTP surface:
//
//	/metrics       Prometheus text exposition of the registry
//	/trace?n=K     last K retrieval traces as JSON lines (default 16)
//	/top?n=K       hottest K latency keys (predicates) as JSON (default 10)
//	/flight?n=K    last K flight-recorder records as JSONL (default: whole ring)
//	/slo           SLO burn-rate status as one JSON document
//	/slowlog?n=K   last K slow-query captures as JSONL (default: whole ring)
//	/debug/pprof/  the standard Go profiling endpoints
func NewAdminMux(cfg AdminConfig) *http.ServeMux {
	reg, tracer, tracker := cfg.Registry, cfg.Tracer, cfg.Latency
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, "trace", 16)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = tracer.WriteJSON(w, n)
	})
	mux.HandleFunc("/top", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, "top", 10)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = tracker.WriteJSON(w, n)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, "flight", 0)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = cfg.Flight.WriteJSONL(w, n)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.SLO.WriteJSON(w)
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, "slowlog", 0)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = cfg.SlowLog.WriteJSONL(w, n)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// queryN parses an optional non-negative ?n= query parameter, writing a
// 400 and reporting !ok on garbage.
func queryN(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		http.Error(w, name+": n must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}
