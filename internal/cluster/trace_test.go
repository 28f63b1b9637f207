package cluster

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/telemetry"
)

// startTracedCluster is startCluster with a tracer in every backend, so
// RETRIEVE replies carry span subtrees for the router to stitch, and a
// four-entry pipeline chunk, so a 200-fact predicate streams 50 chunks.
func startTracedCluster(t *testing.T, shards, replicas int, preds []testPred) *testCluster {
	t.Helper()
	tc := &testCluster{preds: preds}
	for i := 0; i < shards; i++ {
		var part []testPred
		for _, p := range preds {
			if ShardOf(p.indicator(), shards) == i {
				part = append(part, p)
			}
		}
		var srvs []*crs.Server
		var lis []net.Listener
		var addrs []string
		for j := 0; j < replicas; j++ {
			cfg := core.DefaultConfig()
			cfg.Tracer = telemetry.NewTracer(8)
			cfg.StreamChunkEntries = 4
			r, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := crs.NewServer(r)
			for _, p := range part {
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
			srvs, lis, addrs = append(srvs, s), append(lis, l), append(addrs, l.Addr().String())
		}
		tc.srvs = append(tc.srvs, srvs)
		tc.lis = append(tc.lis, lis)
		tc.addrs = append(tc.addrs, addrs)
	}
	return tc
}

// checkSpanTree verifies parent-link consistency: every parent is an ID
// present in the tree (the root's 0 excepted), i.e. one connected trace,
// not fragments.
func checkSpanTree(t *testing.T, spans []telemetry.WireSpan) {
	t.Helper()
	ids := make(map[int]bool, len(spans))
	for _, ws := range spans {
		ids[ws.ID] = true
	}
	roots := 0
	for _, ws := range spans {
		if ws.Parent == 0 {
			roots++
			continue
		}
		if !ids[ws.Parent] {
			t.Errorf("span %d (%s) has dangling parent %d", ws.ID, ws.Name, ws.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1", roots)
	}
}

// spanNames collects the set of span names in a tree.
func spanNames(spans []telemetry.WireSpan) map[string]int {
	names := make(map[string]int)
	for _, ws := range spans {
		names[ws.Name]++
	}
	return names
}

// TestStitchedCrossProcessTrace is the acceptance scenario: 2 shards ×
// 2 replicas behind a traced router yield ONE trace containing the
// router's route/shard spans, the network attempt spans, and the
// backends' pipeline spans, all with consistent parent links.
func TestStitchedCrossProcessTrace(t *testing.T) {
	preds := testPreds()
	tc := startTracedCluster(t, 2, 2, preds)
	tracer := telemetry.NewTracer(4)
	r := newTestRouter(t, tc.addrs, func(cfg *Config) { cfg.Tracer = tracer })
	p := predOnShard(t, preds, 2, 1)
	if _, err := r.Retrieve("fs1+fs2", p.name+"(X, Y)"); err != nil {
		t.Fatal(err)
	}

	traces := tracer.Last(1)
	if len(traces) != 1 {
		t.Fatal("router recorded no trace")
	}
	spans := traces[0].Wire()
	checkSpanTree(t, spans)
	names := spanNames(spans)
	for _, want := range []string{"route", "shard", "net", "retrieve"} {
		if names[want] == 0 {
			t.Errorf("stitched trace missing %q span (have %v)", want, names)
		}
	}
	// The backend subtree must be marked as grafted remote spans.
	remote := 0
	for _, ws := range spans {
		if ws.Attrs["remote_span"] != "" {
			remote++
		}
	}
	if remote == 0 {
		t.Error("no grafted remote spans in the router trace")
	}
}

// TestStitchedTraceFixedShape: the stitched route → shard → net →
// retrieve tree over a 50-chunk predicate has exactly as many spans as
// over a one-chunk predicate — the backend ships stages, not chunks.
func TestStitchedTraceFixedShape(t *testing.T) {
	small, big := facts("shape1", 3), facts("shape50", 200)
	tc := startTracedCluster(t, 2, 1, []testPred{small, big})
	r := newTestRouter(t, tc.addrs, func(cfg *Config) { cfg.Tracer = telemetry.NewTracer(4) })
	spans := func(p testPred, chunks string) int {
		res, err := r.RetrieveTraced("fs1+fs2", p.name+"(e1, Y)", &telemetry.TraceContext{TraceID: 9, ParentSpan: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkSpanTree(t, res.Spans)
		for _, ws := range res.Spans {
			if ws.Name == "fs1_scan" && ws.Attrs["chunks"] != chunks {
				t.Errorf("%s: fs1_scan streamed %s chunks, want %s", p.name, ws.Attrs["chunks"], chunks)
			}
		}
		if names := spanNames(res.Spans); names["fs1_scan"] != 1 || names["fs2_match"] != 1 {
			t.Errorf("%s: stage spans = %v, want one per stage", p.name, names)
		}
		return len(res.Spans)
	}
	if one, many := spans(small, "1"), spans(big, "50"); one != many {
		t.Errorf("stitched tree has %d spans over 1 chunk, %d over 50", one, many)
	}
}

// TestRoutedCallsRecorded: the router records every routed read through
// one function — a routed EXPLAIN reaches its SLO windows and flight
// ring like a retrieval, and a call that dies on a dead shard lands in
// the ring with Err set (and as an SLO error), not as a fault count.
func TestRoutedCallsRecorded(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 1, preds)
	flight := telemetry.NewFlightRecorder(8)
	slo := telemetry.NewSLOTracker(telemetry.SLO{P99: time.Minute})
	r := newTestRouter(t, tc.addrs, func(cfg *Config) {
		cfg.Flight, cfg.SLO = flight, slo
		cfg.WireTimeout, cfg.CallTimeout = 200*time.Millisecond, 200*time.Millisecond
	})
	p := predOnShard(t, preds, 2, 0)
	goal := p.name + "(X, Y)"
	if _, err := r.Explain("fs1+fs2", goal); err != nil {
		t.Fatal(err)
	}
	recs := flight.Snapshot(0)
	if len(recs) != 1 || recs[0].Predicate != p.indicator() || recs[0].Plan != "shard=0" ||
		recs[0].Total != int64(len(p.clauses)) || recs[0].Err != "" {
		t.Fatalf("flight ring after a routed EXPLAIN = %+v", recs)
	}
	if st := slo.Status(); st.Requests != 1 || st.Errors != 0 {
		t.Errorf("SLO windows after a routed EXPLAIN: %+v", st)
	}

	tc.kill(t, 0, 0)
	if _, err := r.Retrieve("fs1+fs2", goal); err == nil {
		t.Fatal("retrieval through a dead shard succeeded")
	}
	recs = flight.Snapshot(0)
	if last := recs[len(recs)-1]; len(recs) != 2 || last.Err == "" || last.Plan != "shard=0" || last.Faults != 0 {
		t.Fatalf("flight ring after a dead-shard retrieval = %+v", recs)
	}
	if st := slo.Status(); st.Requests != 2 || st.Errors != 1 {
		t.Errorf("SLO windows after a dead-shard retrieval: %+v", st)
	}
}

// TestStitchedTraceOverWire runs the full two-process wire path: a
// crs.Client sends the trace header to the cluster front-end, which
// stitches router + backend spans and returns the tree in the TRACE
// reply.
func TestStitchedTraceOverWire(t *testing.T) {
	preds := testPreds()
	tc := startTracedCluster(t, 2, 2, preds)
	tracer := telemetry.NewTracer(4)
	r := newTestRouter(t, tc.addrs, func(cfg *Config) { cfg.Tracer = tracer })
	srv := NewServer(r)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })

	c, err := crs.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := preds[0]
	ctx := &telemetry.TraceContext{TraceID: 77, ParentSpan: 3}
	res, err := c.RetrieveTraced("auto", p.name+"(X, Y)", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != len(p.clauses) {
		t.Errorf("got %d clauses, want %d", len(res.Clauses), len(p.clauses))
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced wire retrieval returned no span tree")
	}
	checkSpanTree(t, res.Spans)
	names := spanNames(res.Spans)
	for _, want := range []string{"route", "shard", "net", "retrieve"} {
		if names[want] == 0 {
			t.Errorf("wire trace missing %q span (have %v)", want, names)
		}
	}
	// The router joined the caller's context.
	if got := tracer.Last(1); len(got) != 1 || got[0].Remote == nil || *got[0].Remote != *ctx {
		t.Error("router trace did not record the caller's context")
	}

	// An old client (no header) still parses against the front-end.
	plain, err := c.Retrieve("auto", p.name+"(X, Y)")
	if err != nil {
		t.Fatalf("headerless retrieve through front-end: %v", err)
	}
	if plain.Spans != nil {
		t.Error("headerless retrieve came back with spans")
	}
}

// TestStitchedTraceSurvivesFailover: with one replica killed after the
// pool warmed, the traced retrieval still succeeds and the stitched tree
// shows the dead attempt (a net span with an error attr) next to the
// successful one, under a span annotated with the failover count.
func TestStitchedTraceSurvivesFailover(t *testing.T) {
	preds := testPreds()
	tc := startTracedCluster(t, 2, 2, preds)
	tracer := telemetry.NewTracer(4)
	r := newTestRouter(t, tc.addrs, func(cfg *Config) { cfg.Tracer = tracer })
	p := predOnShard(t, preds, 2, 0)
	goal := p.name + "(X, Y)"

	if _, err := r.Retrieve("auto", goal); err != nil {
		t.Fatal(err)
	}
	// Pin replica 0 at the head of the candidate order so the traced
	// retrieval hits the dead node first and the failover lands in the
	// trace — load-aware ranking would otherwise sidestep it whenever
	// the warm sample exceeds the idle prior (routine under -race).
	for i := 0; i < 64; i++ {
		r.nodeLat.Observe(tc.addrs[0][0], 100*time.Microsecond)
	}
	tc.kill(t, 0, 0)

	res, err := r.RetrieveTraced("auto", goal, &telemetry.TraceContext{TraceID: 5, ParentSpan: 1})
	if err != nil {
		t.Fatalf("traced retrieve after replica death: %v", err)
	}
	if len(res.Clauses) != len(p.clauses) {
		t.Errorf("failover lost clauses: got %d, want %d", len(res.Clauses), len(p.clauses))
	}
	checkSpanTree(t, res.Spans)
	var nets, failed, annotated int
	for _, ws := range res.Spans {
		if ws.Attrs["failovers"] != "" {
			annotated++
		}
		if ws.Name != "net" {
			continue
		}
		nets++
		if ws.Attrs["error"] != "" {
			failed++
		}
	}
	if nets < 2 || failed == 0 || annotated == 0 {
		t.Errorf("failover not visible in trace: %d net spans, %d failed, %d spans with a failovers attr", nets, failed, annotated)
	}
	if names := spanNames(res.Spans); names["retrieve"] == 0 {
		t.Errorf("surviving replica's pipeline spans missing (have %v)", names)
	}
}

// TestClusterExplain: EXPLAIN through the front-end merges fanned-out
// profiles with monotone candidate counts, and routed (single-shard)
// profiles pass through unchanged.
func TestClusterExplain(t *testing.T) {
	preds := testPreds()
	tc := startTracedCluster(t, 2, 1, preds)
	r := newTestRouter(t, tc.addrs, nil)
	srv := NewServer(r)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	c, err := crs.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := preds[2]
	geti := func(res *crs.ExplainResult, key string) int {
		t.Helper()
		n, err := strconv.Atoi(res.Get(key))
		if err != nil {
			t.Fatalf("%s = %q, want an int", key, res.Get(key))
		}
		return n
	}

	// Routed: one shard answers, profile arrives as the backend built it.
	res, err := c.Explain("fs1+fs2", p.name+"(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get("predicate"); got != p.indicator() {
		t.Errorf("predicate = %q, want %s", got, p.indicator())
	}
	if total := geti(res, "candidates.total"); total != len(p.clauses) {
		t.Errorf("candidates.total = %d, want %d", total, len(p.clauses))
	}

	// Fanned out: software mode hits every shard; the merged counts must
	// stay monotone and the unified count must match the predicate.
	res, err = c.Explain("software", p.name+"(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	total, unified := geti(res, "candidates.total"), geti(res, "candidates.unified")
	if unified != len(p.clauses) {
		t.Errorf("merged candidates.unified = %d, want %d", unified, len(p.clauses))
	}
	if total < unified {
		t.Errorf("merged counts not monotone: total=%d unified=%d", total, unified)
	}
}

// TestExplainMergeValues pins the fan-out merge rules on synthetic
// profiles: ints sum, durations max, bools OR, ratios recomputed.
func TestExplainMergeValues(t *testing.T) {
	mk := func(kv ...string) *crs.ExplainResult {
		res := &crs.ExplainResult{}
		for i := 0; i < len(kv); i += 2 {
			res.Entries = append(res.Entries, core.ExplainEntry{Key: kv[i], Value: kv[i+1]})
		}
		return res
	}
	a := mk("mode", "software", "candidates.total", "10", "candidates.after_fs1", "8",
		"candidates.unified", "2", "fs1.ghost_ratio", "0.7500",
		"sim.total", "20ms", "cache_hit", "false")
	b := mk("mode", "software", "candidates.total", "6", "candidates.after_fs1", "4",
		"candidates.unified", "1", "fs1.ghost_ratio", "0.7500",
		"sim.total", "35ms", "cache_hit", "true")
	m := mergeExplain([]*crs.ExplainResult{a, b})
	want := map[string]string{
		"mode":                 "software",
		"candidates.total":     "16",
		"candidates.after_fs1": "12",
		"candidates.unified":   "3",
		"fs1.ghost_ratio":      "0.7500", // 1 - 3/12
		"sim.total":            "35ms",
		"cache_hit":            "true",
	}
	for k, v := range want {
		if got := m.Get(k); got != v {
			t.Errorf("merged %s = %q, want %q", k, got, v)
		}
	}
	if fmt.Sprint(m.Entries[0].Key) != "mode" {
		t.Errorf("merge lost entry order: first key %q", m.Entries[0].Key)
	}
	if !strings.HasPrefix(m.Entries[1].Key, "candidates.") {
		t.Errorf("merge lost entry order: second key %q", m.Entries[1].Key)
	}
}
