package crs

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"clare/internal/core"
	"clare/internal/telemetry"
	"clare/internal/workload"
)

// newTracedServer is newServer with a tracer wired in, so replies can
// carry span subtrees.
func newTracedServer(t *testing.T) (*Server, *telemetry.Tracer) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Tracer = telemetry.NewTracer(8)
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	return s, cfg.Tracer
}

// TestWireTracePropagation: a traced RETRIEVE carries the caller's
// context down and the backend's span subtree back up, with the remote
// context recorded server-side for stitching.
func TestWireTracePropagation(t *testing.T) {
	s, tracer := newTracedServer(t)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tc := &telemetry.TraceContext{TraceID: 42, ParentSpan: 7}
	res, err := c.RetrieveTraced("fs1+fs2", "married_couple(X, Y)", tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced retrieve returned no span subtree")
	}
	if res.Spans[0].Name != "retrieve" {
		t.Errorf("subtree root = %q, want the backend's retrieve span", res.Spans[0].Name)
	}
	ids := make(map[int]bool, len(res.Spans))
	for _, ws := range res.Spans {
		ids[ws.ID] = true
	}
	for _, ws := range res.Spans[1:] {
		if !ids[ws.Parent] {
			t.Errorf("span %d (%s) has dangling parent %d", ws.ID, ws.Name, ws.Parent)
		}
	}
	tr := tracer.Last(1)
	if len(tr) != 1 || tr[0].Remote == nil || *tr[0].Remote != *tc {
		t.Errorf("server-side trace remote context = %+v, want %+v", tr, tc)
	}

	// Untraced calls on the same connection stay header- and TRACE-free.
	if _, err := c.Retrieve("fs1", "married_couple(husband3, X)"); err != nil {
		t.Fatalf("untraced retrieve after traced one: %v", err)
	}
}

// TestWireTraceRawFrames pins the wire shape: with a header the STATS
// trailer is followed by exactly one TRACE line; without it, by nothing.
func TestWireTraceRawFrames(t *testing.T) {
	s, _ := newTracedServer(t)
	addr := startWire(t, s)
	r := rawDial(t, addr)

	readRetrieve := func(first string) []string {
		t.Helper()
		lines := []string{first}
		var n int
		if _, err := fmt.Sscanf(first, "CANDIDATES %d", &n); err != nil {
			t.Fatalf("first reply %q", first)
		}
		for i := 0; i < n+1; i++ { // clause lines + STATS trailer
			if !r.in.Scan() {
				t.Fatal(r.in.Err())
			}
			lines = append(lines, r.in.Text())
		}
		return lines
	}

	lines := readRetrieve(r.sendRecv(t, "RETRIEVE fs1+fs2 married_couple(X, Y). trace=9:3"))
	if !r.in.Scan() || !strings.HasPrefix(r.in.Text(), "TRACE ") {
		t.Fatalf("traced RETRIEVE not followed by a TRACE line (got %q)", r.in.Text())
	}
	tok := strings.TrimPrefix(r.in.Text(), "TRACE ")
	if spans, err := telemetry.DecodeWireSpans(tok); err != nil || len(spans) == 0 {
		t.Fatalf("TRACE token %q: spans=%d err=%v", tok, len(spans), err)
	}
	if !strings.HasPrefix(lines[len(lines)-1], "STATS ") {
		t.Errorf("trailer = %q", lines[len(lines)-1])
	}

	// Old-client frame: no header, no TRACE line — HELLO answers next.
	readRetrieve(r.sendRecv(t, "RETRIEVE fs1+fs2 married_couple(X, Y)."))
	if got := r.sendRecv(t, "HELLO"); !strings.HasPrefix(got, "OK crs") {
		t.Errorf("connection desynced after headerless RETRIEVE: HELLO answered %q", got)
	}
}

// TestWireTraceNoTracer: a server without a tracer answers a traced
// request with the "-" sentinel instead of a token.
func TestWireTraceNoTracer(t *testing.T) {
	s := newServer(t) // no tracer
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.RetrieveTraced("fs1", "married_couple(X, Y)", &telemetry.TraceContext{TraceID: 1, ParentSpan: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Errorf("tracerless server returned %d spans, want none", len(res.Spans))
	}
}

// TestWireExplain: the EXPLAIN command returns the profile with monotone
// candidate counts and a nonzero FS1 ghost ratio for the shared-variable
// pathology.
func TestWireExplain(t *testing.T) {
	s, _ := newTracedServer(t)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Explain("fs1+fs2", "married_couple(S, S)")
	if err != nil {
		t.Fatal(err)
	}
	geti := func(key string) int {
		v := res.Get(key)
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("%s = %q, want an int", key, v)
		}
		return n
	}
	total, fs1, fs2, unified := geti("candidates.total"), geti("candidates.after_fs1"),
		geti("candidates.after_fs2"), geti("candidates.unified")
	if !(total >= fs1 && fs1 >= fs2 && fs2 >= unified) {
		t.Errorf("counts not monotone: %d %d %d %d", total, fs1, fs2, unified)
	}
	ghost, err := strconv.ParseFloat(res.Get("fs1.ghost_ratio"), 64)
	if err != nil || ghost <= 0 {
		t.Errorf("fs1.ghost_ratio = %q, want > 0", res.Get("fs1.ghost_ratio"))
	}
	if res.Get("mode") != "fs1+fs2" {
		t.Errorf("mode = %q", res.Get("mode"))
	}

	// Traced EXPLAIN also returns the span subtree.
	tres, err := c.ExplainTraced("fs1+fs2", "married_couple(S, S)", &telemetry.TraceContext{TraceID: 5, ParentSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tres.Spans) == 0 {
		t.Error("traced EXPLAIN returned no span subtree")
	}
}
