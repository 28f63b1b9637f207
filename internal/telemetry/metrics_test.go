package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "requests", Labels{"mode": "fs1"})
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same handle.
	if c2 := reg.Counter("requests_total", "requests", Labels{"mode": "fs1"}); c2 != c {
		t.Error("re-resolving a series returned a different handle")
	}
	// Different labels: a distinct series.
	if c3 := reg.Counter("requests_total", "requests", Labels{"mode": "fs2"}); c3 == c {
		t.Error("distinct label set shared a handle")
	}

	g := reg.Gauge("boards_busy", "busy boards", nil)
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", Buckets(0.01, 0.1, 1), nil)
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 5.555 {
		t.Errorf("sum = %v, want 5.555", got)
	}
	h.ObserveDuration(20 * time.Millisecond)
	if got := h.Count(); got != 5 {
		t.Errorf("count after ObserveDuration = %d, want 5", got)
	}
}

func TestNilRegistryAndHandlesNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "", nil)
	g := reg.Gauge("y", "", nil)
	h := reg.Histogram("z", "", nil, nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c != nil || g != nil || h != nil {
		t.Error("nil registry should hand out nil handles")
	}
	if got := reg.Gather(); got != nil {
		t.Errorf("nil registry Gather = %v, want nil", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", sb.String(), err)
	}
}

func TestKindMismatchReturnsDetached(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dual", "", nil)
	c.Inc()
	g := reg.Gauge("dual", "", nil) // wrong kind for the family
	if g == nil {
		t.Fatal("kind mismatch returned nil")
	}
	g.Set(42) // must not corrupt the family
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dual 1") {
		t.Errorf("family reading lost after kind mismatch:\n%s", sb.String())
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clare_retrievals_total", "retrievals served", Labels{"mode": "fs1+fs2"}).Add(7)
	reg.Gauge("clare_boards_busy", "busy boards", nil).Set(2)
	h := reg.Histogram("clare_stage_seconds", "stage time", Buckets(0.001, 1), Labels{"stage": "fs1_scan", "mode": "fs2"})
	h.Observe(0.0009765625) // binary-exact values keep the _sum assertion exact
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE clare_retrievals_total counter",
		`clare_retrievals_total{mode="fs1+fs2"} 7`,
		"# TYPE clare_boards_busy gauge",
		"clare_boards_busy 2",
		"# TYPE clare_stage_seconds histogram",
		`clare_stage_seconds_bucket{mode="fs2",stage="fs1_scan",le="0.001"} 1`,
		`clare_stage_seconds_bucket{mode="fs2",stage="fs1_scan",le="1"} 2`,
		`clare_stage_seconds_bucket{mode="fs2",stage="fs1_scan",le="+Inf"} 3`,
		`clare_stage_seconds_sum{mode="fs2",stage="fs1_scan"} 2.5009765625`,
		`clare_stage_seconds_count{mode="fs2",stage="fs1_scan"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", Labels{"goal": `p("a\b` + "\n" + `")`}).Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `goal="p(\"a\\b\n\")"`) {
		t.Errorf("labels not escaped:\n%s", sb.String())
	}
}

func TestGatherOrderAndValues(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("b_metric", "", Labels{"x": "1"}).Set(1.5)
	reg.Gauge("a_metric", "", nil).Set(2.5)
	reg.Gauge("b_metric", "", Labels{"x": "2"}).Set(3.5)
	got := reg.Gather()
	if len(got) != 3 {
		t.Fatalf("gathered %d series, want 3", len(got))
	}
	// Registration order, not alphabetical: families then series.
	if got[0].Name != "b_metric" || got[0].Labels["x"] != "1" || got[0].Value != 1.5 {
		t.Errorf("series 0 = %+v", got[0])
	}
	if got[1].Name != "b_metric" || got[1].Labels["x"] != "2" || got[1].Value != 3.5 {
		t.Errorf("series 1 = %+v", got[1])
	}
	if got[2].Name != "a_metric" || got[2].Value != 2.5 {
		t.Errorf("series 2 = %+v", got[2])
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				reg.Counter("conc_total", "", Labels{"w": string(rune('a' + i%4))}).Inc()
				reg.Histogram("conc_seconds", "", nil, nil).Observe(float64(j) / 1000)
				if j%50 == 0 {
					var sb strings.Builder
					_ = reg.WritePrometheus(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, sv := range reg.Gather() {
		if sv.Name == "conc_total" {
			total += int64(sv.Value)
		}
	}
	if total != 8*200 {
		t.Errorf("counter total = %d, want %d", total, 8*200)
	}
}
