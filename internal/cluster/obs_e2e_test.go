package cluster

import (
	"encoding/json"
	"net"
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

// startObsBackend boots one native backend with the full diagnosis stack
// armed and a fault injector delaying every retrieval — pure latency at
// the core.retrieve site, mirroring `crsd -fault core.retrieve=1,delay=...`
// (a slow backend, not a broken one).
func startObsBackend(t *testing.T, preds []testPred, delay time.Duration) (*crs.Server, net.Listener) {
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
	s.SetFlight(cfg.Flight, "")
	s.SetSlowLog(telemetry.NewSlowQueryLog(16, time.Millisecond), delay/4, 0)
	s.SetSLO(telemetry.NewSLOTracker(telemetry.SLO{P99: delay / 4}))
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

// TestClusterSlowCaptureEndToEnd is the acceptance path for the
// observability stack across two processes' worth of machinery: a
// backend whose retrievals of one predicate are slowed by an injected
// fault latency, fronted by a router with its own flight recorder and
// SLO tracker.
//
//   - the slowed retrieval produces a slow capture on the backend with a
//     monotone EXPLAIN funnel and a trace ID resolving in the backend's
//     flight dump;
//   - an SLO set below the injected latency shows nonzero burn in the
//     slo.* STATS of both the backend and the router overlay;
//   - a flight snapshot (the SIGTERM/panic path) is valid JSONL.
func TestClusterSlowCaptureEndToEnd(t *testing.T) {
	preds := []testPred{facts("obsfact", 12)}
	const delay = 10 * time.Millisecond
	backend, l := startObsBackend(t, preds, delay)

	var routerSLO *telemetry.SLOTracker
	var routerFlight *telemetry.FlightRecorder
	r := newTestRouter(t, [][]string{{l.Addr().String()}}, func(cfg *Config) {
		routerSLO = telemetry.NewSLOTracker(telemetry.SLO{P99: delay / 4})
		routerFlight = telemetry.NewFlightRecorder(64)
		cfg.SLO = routerSLO
		cfg.Flight = routerFlight
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

	start := time.Now()
	res, err := c.Retrieve("auto", "obsfact(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 12 {
		t.Fatalf("retrieved %d clauses, want 12", len(res.Clauses))
	}
	if wall := time.Since(start); wall < delay {
		t.Fatalf("injected latency did not fire: wall %v < %v", wall, delay)
	}

	// 1. The backend captured the slow query, EXPLAIN funnel monotone.
	deadline := time.Now().Add(5 * time.Second)
	for backend.SlowLog().Captured() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow capture never landed on the backend")
		}
		time.Sleep(time.Millisecond)
	}
	caps := backend.SlowLog().Tail(0)
	if len(caps) == 0 {
		t.Fatal("slow log tail empty after capture")
	}
	capt := caps[len(caps)-1]
	if capt.Predicate != "obsfact/2" || capt.WallNS < int64(delay) {
		t.Errorf("capture = %+v", capt)
	}
	prof := make(map[string]string, len(capt.Profile))
	for _, kv := range capt.Profile {
		prof[kv.Key] = kv.Value
	}
	if prof["candidates.total"] == "" || prof["candidates.after_fs1"] == "" {
		t.Errorf("capture profile missing funnel counts: %v", capt.Profile)
	}

	// 2. The capture's trace ID resolves in the backend's flight dump.
	if capt.TraceID == 0 {
		t.Error("capture missing trace ID")
	}
	var matched *telemetry.FlightRecord
	for _, rec := range backend.Flight().Snapshot(0) {
		if rec.TraceID == capt.TraceID {
			matched = rec
		}
	}
	if matched == nil {
		t.Fatalf("capture trace %d not in the backend flight dump", capt.TraceID)
	}
	if !(matched.Total >= matched.AfterFS1 && matched.AfterFS1 >= matched.AfterFS2) {
		t.Errorf("flight funnel not monotone: %+v", matched)
	}
	if matched.WallNS < int64(delay) {
		t.Errorf("flight wall %v below the injected %v", time.Duration(matched.WallNS), delay)
	}

	// 3. Nonzero SLO burn on the backend's own STATS...
	direct, err := crs.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	kv, err := direct.Stats()
	direct.Close()
	if err != nil {
		t.Fatal(err)
	}
	if kv["slo.enabled"] != 1 || kv["slo.slow"] < 1 || kv["slo.burn.short.milli"] <= 0 {
		t.Errorf("backend slo stats: enabled=%d slow=%d burn=%d",
			kv["slo.enabled"], kv["slo.slow"], kv["slo.burn.short.milli"])
	}

	// ...and on the router overlay, both the aggregated backend view and
	// the router's own observation of the routed call.
	kv, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["slo.enabled"] != 1 || kv["slo.burn.short.milli"] <= 0 {
		t.Errorf("cluster slo overlay: enabled=%d burn=%d", kv["slo.enabled"], kv["slo.burn.short.milli"])
	}
	if kv["cluster.slo.burn.short.milli"] <= 0 {
		t.Errorf("cluster.slo.burn.short.milli = %d, want > 0", kv["cluster.slo.burn.short.milli"])
	}
	if st := routerSLO.Status(); st.Requests < 1 || st.Slow < 1 {
		t.Errorf("router-side SLO tracker: %+v", st)
	}
	if kv["cluster.flight.recorded"] < 1 {
		t.Errorf("cluster.flight.recorded = %d", kv["cluster.flight.recorded"])
	}
	if recs := routerFlight.Snapshot(0); len(recs) == 0 {
		t.Error("router flight ring empty after a routed retrieval")
	} else if recs[len(recs)-1].WallNS < int64(delay) {
		t.Errorf("router flight record wall %v below the injected %v",
			time.Duration(recs[len(recs)-1].WallNS), delay)
	}

	// 4. The SIGTERM/panic snapshot path leaves valid JSONL behind.
	snap := filepath.Join(t.TempDir(), "crash.flight")
	if err := backend.Flight().SnapshotToFile(snap); err != nil {
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
		if !json.Valid([]byte(ln)) {
			t.Errorf("snapshot line not valid JSON: %s", ln)
		}
	}
}

// TestClusterSlowTailScatterGather: the front-end's SLOWLOG verb
// gathers captures from every backend group.
func TestClusterSlowTailScatterGather(t *testing.T) {
	preds := []testPred{facts("obsfact", 8)}
	const delay = 10 * time.Millisecond
	_, l := startObsBackend(t, preds, delay)
	r := newTestRouter(t, [][]string{{l.Addr().String()}}, nil)
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
	if _, err := c.Retrieve("auto", "obsfact(X, Y)"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		caps, err := c.SlowTail(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(caps) > 0 {
			if caps[0].Predicate != "obsfact/2" {
				t.Errorf("gathered capture = %+v", caps[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SLOWLOG through the front-end never surfaced the backend capture")
		}
		time.Sleep(time.Millisecond)
	}

	// FLIGHT through the front-end serves the router's own ring (empty
	// here: no recorder armed), not an error.
	if recs, err := c.Flight(0); err != nil || len(recs) != 0 {
		t.Errorf("front-end FLIGHT = %d records, err %v", len(recs), err)
	}
}
