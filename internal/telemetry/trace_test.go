package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.Start("retrieve")
	root := trace.Root()
	if root == nil || root.ID != 1 || root.Parent != 0 || root.Name != "retrieve" {
		t.Fatalf("root span = %+v", root)
	}
	enc := trace.Span(root, "encode")
	enc.SetAttr("cache", "miss")
	enc.End()
	chunk := trace.Span(root, "chunk")
	// A stage its caller timed itself arrives finished.
	scanStart := time.Now()
	scan := trace.Record(chunk, "fs1_scan", scanStart, 2*time.Millisecond, 4*time.Millisecond)
	chunk.End()
	root.End()
	tr.Finish(trace)

	if len(trace.Spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(trace.Spans))
	}
	if scan.Parent != chunk.ID || chunk.Parent != root.ID || enc.Parent != root.ID {
		t.Errorf("parent links wrong: enc=%d chunk=%d scan=%d", enc.Parent, chunk.Parent, scan.Parent)
	}
	if scan.Sim != 4*time.Millisecond || scan.Wall != 2*time.Millisecond || !scan.Start.Equal(scanStart) {
		t.Errorf("recorded span = %+v, want sim 4ms wall 2ms at %v", scan, scanStart)
	}
	if enc.Attrs["cache"] != "miss" {
		t.Errorf("attrs = %v", enc.Attrs)
	}
	// A nil parent on a non-empty trace attaches to the root.
	orphan := trace.Span(nil, "late")
	if orphan.Parent != root.ID {
		t.Errorf("nil-parent span parent = %d, want root %d", orphan.Parent, root.ID)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		trace := tr.Start(fmt.Sprintf("op%d", i))
		tr.Finish(trace)
	}
	last := tr.Last(0)
	if len(last) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(last))
	}
	// Oldest first: op2, op3, op4.
	for i, want := range []string{"op2", "op3", "op4"} {
		if last[i].Name != want {
			t.Errorf("ring[%d] = %s, want %s", i, last[i].Name, want)
		}
	}
	if got := tr.Last(2); len(got) != 2 || got[1].Name != "op4" {
		t.Errorf("Last(2) = %v", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	trace := tr.Start("x")
	if trace != nil {
		t.Fatal("nil tracer returned a trace")
	}
	sp := trace.Span(nil, "y")
	sp.SetAttr("a", "b")
	sp.End()
	if trace.Record(nil, "z", time.Time{}, 0, time.Second) != nil || tr.StartAt("x", nil, time.Time{}) != nil {
		t.Error("nil tracer/trace recorded a span")
	}
	tr.Finish(trace)
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 10); err != nil || sb.Len() != 0 {
		t.Errorf("nil tracer JSON = %q, %v", sb.String(), err)
	}
}

func TestWriteJSONLines(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 2; i++ {
		trace := tr.Start("retrieve")
		trace.Record(nil, "fs2_match", time.Now(), 0, time.Millisecond)
		trace.Root().End()
		tr.Finish(trace)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lines := 0
	for sc.Scan() {
		lines++
		var decoded Trace
		if err := json.Unmarshal(sc.Bytes(), &decoded); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		if decoded.Name != "retrieve" || len(decoded.Spans) != 2 {
			t.Errorf("decoded trace = %+v", &decoded)
		}
		if decoded.Spans[1].Sim != time.Millisecond {
			t.Errorf("sim duration lost in JSON: %v", decoded.Spans[1].Sim)
		}
	}
	if lines != 2 {
		t.Errorf("JSONL lines = %d, want 2", lines)
	}
}
