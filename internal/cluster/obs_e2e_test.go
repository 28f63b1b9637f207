package cluster

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/fault"
	"clare/internal/telemetry"
)

// startObsBackend boots one native backend with its tracer and flight
// recorder armed (snapshots going to snap) and a fault injector delaying
// every retrieval — pure latency at the core.retrieve site, mirroring
// `crsd -fault core.retrieve=1,delay=...` (a slow backend, not a broken
// one).
func startObsBackend(t *testing.T, preds []testPred, delay time.Duration, snap string) (*crs.Server, net.Listener) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Tracer = telemetry.NewTracer(32)
	cfg.Flight = telemetry.NewFlightRecorder(128)
	cfg.Faults = fault.New(1).Add(fault.Rule{
		Site: fault.SiteRetrieve, Probability: 1, Delay: delay,
	})
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := crs.NewServer(r)
	s.SetFlight(cfg.Flight, snap)
	for _, p := range preds {
		if err := s.Load("test", p.clauses); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })
	return s, l
}

// TestClusterSlowRetrievalFlight is the acceptance path for a slow
// retrieval across two processes' worth of machinery: a backend whose
// retrievals are slowed by an injected fault latency, fronted by a
// traced router with its own flight recorder. The slow call is found
// where an operator finds it — in the flight rings:
//
//   - the router's record, dumped by FLIGHT through the front-end,
//     carries wall >= delay, plan=shard=0, a monotone funnel and the
//     router's trace ID;
//   - that trace ID is the caller trace ID on the backend's flight
//     record of the same call;
//   - /top on the backend and on the router counts every retrieval;
//   - SnapshotFlight (the SIGTERM/panic path) leaves valid JSONL.
func TestClusterSlowRetrievalFlight(t *testing.T) {
	preds := []testPred{facts("obsfact", 12)}
	const delay = 10 * time.Millisecond
	snap := filepath.Join(t.TempDir(), "crash.flight")
	backend, l := startObsBackend(t, preds, delay, snap)

	r := newTestRouter(t, [][]string{{l.Addr().String()}}, func(cfg *Config) {
		cfg.Tracer = telemetry.NewTracer(16)
		cfg.Flight = telemetry.NewFlightRecorder(64)
	})
	front := NewServer(r)
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(fl)
	t.Cleanup(func() { fl.Close() })

	c, err := crs.Dial(fl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Retrieve("auto", "obsfact(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 12 {
		t.Fatalf("retrieved %d clauses, want 12", len(res.Clauses))
	}

	// 1. The router's own record, as FLIGHT through the front-end serves it.
	recs, err := c.Flight(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("router flight ring holds %d records, want 1: %+v", len(recs), recs)
	}
	rec := recs[0]
	if rec.Predicate != "obsfact/2" || rec.Plan != "shard=0" || rec.Err != "" {
		t.Errorf("router flight record = %+v", rec)
	}
	if rec.WallNS < int64(delay) {
		t.Errorf("router flight wall %v below the injected %v", time.Duration(rec.WallNS), delay)
	}
	if !(rec.Total >= rec.AfterFS1 && rec.AfterFS1 >= rec.AfterFS2 && rec.AfterFS2 > 0) {
		t.Errorf("router flight funnel not monotone: %+v", rec)
	}
	if rec.TraceID == 0 {
		t.Fatal("router flight record carries no trace ID")
	}
	if kv, err := c.Stats(); err != nil || kv["cluster.flight.recorded"] != 1 {
		t.Errorf("cluster.flight.recorded = %d, err %v", kv["cluster.flight.recorded"], err)
	}

	// 2. The router's trace ID joins the backend's record of the call.
	var matched *telemetry.FlightRecord
	for _, br := range backend.Flight().Snapshot(0) {
		if br.CallerTraceID == rec.TraceID {
			matched = br
		}
	}
	if matched == nil {
		t.Fatalf("no backend flight record has caller trace %d", rec.TraceID)
	}
	if matched.Predicate != "obsfact/2" || matched.WallNS < int64(delay) {
		t.Errorf("backend flight record = %+v", matched)
	}
	if !(matched.Total >= matched.AfterFS1 && matched.AfterFS1 >= matched.AfterFS2) {
		t.Errorf("backend flight funnel not monotone: %+v", matched)
	}

	// 3. /top on both sides counts every retrieval of the predicate.
	const k = 3
	for i := 1; i < k; i++ {
		if _, err := c.Retrieve("auto", "obsfact(X, Y)"); err != nil {
			t.Fatal(err)
		}
	}
	for side, f := range map[string]*telemetry.FlightRecorder{"backend": backend.Flight(), "router": r.Flight()} {
		rec := httptest.NewRecorder()
		telemetry.NewAdminMux(telemetry.AdminConfig{Flight: f}).ServeHTTP(rec, httptest.NewRequest("GET", "/top?n=5", nil))
		var top []telemetry.TopEntry
		if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
			t.Fatalf("%s /top payload %q: %v", side, rec.Body.String(), err)
		}
		if len(top) != 1 || top[0].Key != "obsfact/2" || top[0].Count != k || top[0].P50 < delay {
			t.Errorf("%s /top = %+v, want obsfact/2 with count %d and P50 >= %v", side, top, k, delay)
		}
	}

	// 4. The SIGTERM/panic snapshot path leaves valid JSONL behind.
	if err := backend.SnapshotFlight(); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("flight snapshot empty")
	}
	for _, ln := range lines {
		var fr telemetry.FlightRecord
		if err := json.Unmarshal([]byte(ln), &fr); err != nil || fr.Predicate != "obsfact/2" {
			t.Errorf("snapshot line not a flight record (%v): %s", err, ln)
		}
	}
}
