package cluster

import (
	"encoding/json"
	"io"
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
// recorder armed (snapshots going to snap) and, for a positive delay, a
// fault injector delaying every retrieval — pure latency at the
// core.retrieve site, mirroring `crsd -fault core.retrieve=1,delay=...`
// (a slow backend, not a broken one).
func startObsBackend(t *testing.T, preds []testPred, delay time.Duration, snap string) (*crs.Server, net.Listener) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Tracer = telemetry.NewTracer(32)
	cfg.Flight = telemetry.NewFlightRecorder(128)
	if delay > 0 {
		cfg.Faults = fault.New(1).Add(fault.Rule{
			Site: fault.SiteRetrieve, Probability: 1, Delay: delay,
		})
	}
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

// startFrontEnd serves r's wire front-end on loopback and returns its
// address.
func startFrontEnd(t *testing.T, r *Router) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewServer(r).Serve(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// TestClusterSlowRetrievalFlight is the acceptance path for a slow
// retrieval across two processes' worth of machinery: a backend whose
// retrievals are slowed by an injected fault latency, fronted by a
// router with a tracer and its own flight recorder. The slow call, sent
// with a trace context, is found where an operator finds it — in the
// flight rings:
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
	c, err := crs.Dial(startFrontEnd(t, r))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.RetrieveTraced("auto", "obsfact(X, Y)", &telemetry.TraceContext{TraceID: 99, ParentSpan: 1})
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

// rawSession sends script to the server at addr in one write and returns
// everything the server answers until it closes the connection (the
// script ends with QUIT).
func rawSession(t *testing.T, addr, script string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(script)); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestUntracedRetrievalRecordsNoTrace: a trace is recorded only for a
// request that carries a trace context. Untraced retrievals through a
// router and a native backend, both with a tracer armed, leave both
// trace rings empty, put no TRACE line on either server's wire and file
// flight records with no trace or caller ID. One traced retrieval then
// lands in both rings, and the backend's flight record of it joins the
// router's by caller trace ID.
func TestUntracedRetrievalRecordsNoTrace(t *testing.T) {
	const n = 5
	backend, l := startObsBackend(t, []testPred{facts("obsfact", 12)}, 0, "")
	backendTracer := backend.Retriever().Tracer()
	routerTracer, routerFlight := telemetry.NewTracer(16), telemetry.NewFlightRecorder(64)
	r := newTestRouter(t, [][]string{{l.Addr().String()}}, func(cfg *Config) {
		cfg.Tracer, cfg.Flight = routerTracer, routerFlight
	})
	front := startFrontEnd(t, r)
	c, err := crs.Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < n; i++ {
		res, err := c.Retrieve("auto", "obsfact(X, Y)")
		if err != nil || len(res.Clauses) != 12 || res.Spans != nil {
			t.Fatalf("untraced retrieval %d: %v, %+v", i, err, res)
		}
	}
	if _, err := c.Explain("auto", "obsfact(X, Y)"); err != nil {
		t.Fatal(err)
	}
	for side, addr := range map[string]string{"router": front, "backend": l.Addr().String()} {
		out := rawSession(t, addr, "RETRIEVE auto obsfact(X, Y).\nEXPLAIN auto obsfact(X, Y).\nQUIT\n")
		if !strings.Contains(out, "C obsfact(") || strings.Contains(out, "TRACE") {
			t.Errorf("%s: untraced session reply:\n%s", side, out)
		}
	}
	if got, back := len(routerTracer.Last(0)), len(backendTracer.Last(0)); got != 0 || back != 0 {
		t.Errorf("untraced traffic left %d router and %d backend traces", got, back)
	}
	// The router saw n retrievals, one EXPLAIN and its raw session's two
	// calls; the backend saw all of those and its own raw session's two.
	for side, want := range map[string]struct {
		f    *telemetry.FlightRecorder
		recs int
	}{"router": {routerFlight, n + 3}, "backend": {backend.Flight(), n + 5}} {
		recs := want.f.Snapshot(0)
		if len(recs) != want.recs {
			t.Errorf("%s flight ring holds %d records, want %d", side, len(recs), want.recs)
		}
		for _, rec := range recs {
			if rec.TraceID != 0 || rec.CallerTraceID != 0 {
				t.Errorf("%s: untraced flight record %+v carries a trace", side, rec)
			}
		}
	}

	ctx := &telemetry.TraceContext{TraceID: 77, ParentSpan: 3}
	res, err := c.RetrieveTraced("auto", "obsfact(X, Y)", ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanTree(t, res.Spans)
	rt, bt := routerTracer.Last(0), backendTracer.Last(0)
	if len(rt) != 1 || len(bt) != 1 {
		t.Fatalf("one traced retrieval left %d router and %d backend traces, want 1 each", len(rt), len(bt))
	}
	if rt[0].Remote == nil || *rt[0].Remote != *ctx || bt[0].Remote == nil || bt[0].Remote.TraceID != rt[0].TraceID {
		t.Errorf("traces not joined: router remote %+v, backend remote %+v", rt[0].Remote, bt[0].Remote)
	}
	routerRecs, backendRecs := routerFlight.Snapshot(1), backend.Flight().Snapshot(1)
	if len(routerRecs) != 1 || len(backendRecs) != 1 || routerRecs[0].TraceID != rt[0].TraceID ||
		backendRecs[0].TraceID != bt[0].TraceID || backendRecs[0].CallerTraceID != rt[0].TraceID {
		t.Errorf("traced flight records do not join: router %+v, backend %+v", routerRecs, backendRecs)
	}
}
