package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWireSpanRoundTrip: a trace's wire form survives encode/decode and
// grafts back with remapped IDs and origin markers.
func TestWireSpanRoundTrip(t *testing.T) {
	tr := NewTracer(2)
	remote := tr.Start("retrieve")
	root := remote.Root()
	child := remote.Span(root, "fs1_scan")
	child.SetAttr("chunk", "0")
	child.End()
	root.End()

	tok := EncodeWireSpans(remote.Wire())
	spans, err := DecodeWireSpans(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Name != "retrieve" || spans[1].Attrs["chunk"] != "0" {
		t.Fatalf("round trip mangled spans: %+v", spans)
	}

	local := tr.Start("route")
	net := local.Span(local.Root(), "net")
	local.Graft(net, spans)
	all := local.Wire()
	if len(all) != 4 { // route, net, retrieve, fs1_scan
		t.Fatalf("grafted trace has %d spans, want 4", len(all))
	}
	byName := make(map[string]WireSpan)
	for _, ws := range all {
		byName[ws.Name] = ws
	}
	if byName["retrieve"].Parent != net.ID {
		t.Errorf("grafted subtree root hangs from %d, want net span %d", byName["retrieve"].Parent, net.ID)
	}
	if byName["fs1_scan"].Parent != byName["retrieve"].ID {
		t.Error("grafted child lost its parent link")
	}
	if byName["retrieve"].Attrs["remote_span"] != "1" {
		t.Errorf("grafted span remote_span = %q, want original ID 1", byName["retrieve"].Attrs["remote_span"])
	}
}

// TestLatencyTrackerQuantiles: nearest-rank quantiles over a known
// sample set, hottest-first Top ordering.
func TestLatencyTrackerQuantiles(t *testing.T) {
	lt := NewLatencyTracker(0)
	for i := 1; i <= 100; i++ {
		lt.Observe("hot/2", time.Duration(i)*time.Millisecond)
	}
	lt.Observe("cold/1", 5*time.Millisecond)

	top := lt.Top(10)
	if len(top) != 2 || top[0].Key != "hot/2" || top[1].Key != "cold/1" {
		t.Fatalf("Top order wrong: %+v", top)
	}
	h := top[0]
	if h.Count != 100 {
		t.Errorf("count = %d, want 100", h.Count)
	}
	if h.P50 != 50*time.Millisecond || h.P90 != 90*time.Millisecond || h.P99 != 99*time.Millisecond {
		t.Errorf("quantiles = %v/%v/%v, want 50ms/90ms/99ms", h.P50, h.P90, h.P99)
	}
	if h.Max != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", h.Max)
	}

	// The window drops old samples but lifetime count/sum keep running.
	for i := 0; i < DefaultLatencyWindow; i++ {
		lt.Observe("hot/2", time.Millisecond)
	}
	h = lt.Top(1)[0]
	if h.Count != uint64(100+DefaultLatencyWindow) {
		t.Errorf("lifetime count = %d", h.Count)
	}
	if h.P99 != time.Millisecond {
		t.Errorf("windowed P99 = %v, want 1ms after the window rolled", h.P99)
	}
}

// TestAdminMuxTop: /top serves the hottest predicates as JSON; bad n is
// a 400; a mux without a tracker serves an empty list.
func TestAdminMuxTop(t *testing.T) {
	lt := NewLatencyTracker(0)
	lt.Observe("married_couple/2", 3*time.Millisecond)
	lt.Observe("route0/2", time.Millisecond)
	mux := NewAdminMux(AdminConfig{Registry: NewRegistry(), Latency: lt})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/top?n=1", nil))
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("GET /top: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	var snaps []LatencySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snaps); err != nil {
		t.Fatalf("bad /top payload %q: %v", rec.Body.String(), err)
	}
	if len(snaps) != 1 || snaps[0].Key != "married_couple/2" {
		t.Errorf("/top?n=1 = %+v, want the hottest predicate only", snaps)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/top?n=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	NewAdminMux(AdminConfig{Registry: NewRegistry()}).ServeHTTP(rec, httptest.NewRequest("GET", "/top", nil))
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("trackerless /top = %d %q, want 200 []", rec.Code, rec.Body.String())
	}
}

// TestLintPrometheusCatchesDrift: each rule fires on a minimal bad
// exposition and stays quiet on a clean one.
func TestLintPrometheusCatchesDrift(t *testing.T) {
	clean := `# HELP clare_requests_total requests served
# TYPE clare_requests_total counter
clare_requests_total{mode="fs1"} 3
clare_requests_total{mode="fs2"} 1
# TYPE clare_boards_free gauge
clare_boards_free 4
# TYPE clare_latency_seconds histogram
clare_latency_seconds_bucket{le="0.1"} 2
clare_latency_seconds_bucket{le="+Inf"} 3
clare_latency_seconds_sum 0.4
clare_latency_seconds_count 3
`
	if got, err := LintPrometheus(strings.NewReader(clean)); err != nil || len(got) != 0 {
		t.Fatalf("clean exposition flagged: %v %v", got, err)
	}

	cases := []struct {
		name, text, want string
	}{
		{"dup help", "# HELP a x\n# HELP a y\n# TYPE a gauge\na 1\n", "duplicate HELP"},
		{"dup type", "# TYPE a gauge\n# TYPE a gauge\na 1\n", "duplicate TYPE"},
		{"counter suffix", "# TYPE clare_requests counter\nclare_requests 3\n", "does not end in _total"},
		{"dup series", "# TYPE a gauge\na{x=\"1\"} 2\na{x=\"1\"} 3\n", "duplicate series"},
		{"dup series label order", "# TYPE a gauge\na{x=\"1\",y=\"2\"} 2\na{y=\"2\",x=\"1\"} 3\n", "duplicate series"},
		{"type after sample", "a 1\n# TYPE a gauge\n", "after its samples"},
	}
	for _, c := range cases {
		got, err := LintPrometheus(strings.NewReader(c.text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) == 0 || !strings.Contains(strings.Join(got, "\n"), c.want) {
			t.Errorf("%s: problems %v, want one containing %q", c.name, got, c.want)
		}
	}
}

// TestLintPrometheusOnLiveRegistry: the registry's own exposition must
// pass its own linter — this is the CI gate in miniature.
func TestLintPrometheusOnLiveRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clare_requests_total", "requests", Labels{"mode": "fs1"}).Inc()
	reg.Gauge("clare_boards_free", "free boards", nil).Set(3)
	reg.Histogram("clare_latency_seconds", "latency", DurationBuckets, nil).Observe(0.01)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := LintPrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("registry exposition fails its own lint:\n%s\nproblems: %v", sb.String(), got)
	}
}
