package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := generate(7, smokeShape), generate(7, smokeShape), generate(8, smokeShape)
	if a.hash != b.hash || a.clauses != b.clauses {
		t.Fatalf("same seed, different KB: %v vs %v", a, b)
	}
	if a.hash == c.hash {
		t.Fatalf("seeds 7 and 8 gave the same KB hash %016x", a.hash)
	}
	if a.clauses != c.clauses {
		t.Fatalf("geometry depends on the seed: %d vs %d clauses", a.clauses, c.clauses)
	}
	for _, w := range workloads {
		first := func(k *kb, seed int64) []op {
			var out []op
			for _, next := range streams(w, k, seed) {
				for i := 0; i < 50; i++ {
					out = append(out, next())
				}
			}
			return out
		}
		x, y, z := first(a, 7), first(b, 7), first(c, 8)
		same := true
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: same seed, op %d differs: %v vs %v", w.name, i, x[i], y[i])
			}
			same = same && x[i] == z[i]
		}
		// xbind_match has four possible goals; 100 draws of them can
		// coincide only if the two seeds' streams do.
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same goal stream", w.name)
		}
	}
}

func TestStatHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 100}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	if got := median(xs[:5]); got != 3 {
		t.Errorf("median of five = %v, want 3", got)
	}
	// Deviations from 3.5: 1.5 2.5 0.5 1.5 0.5 96.5 → median 1.5.
	if got := mad(xs); got != 1.5 {
		t.Errorf("mad = %v, want 1.5", got)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 3}, {0.99, 100}, {0, 1}, {1, 100}, {0.17, 2}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || iqrShare([]float64{4}) != 0 {
		t.Error("empty input must read 0")
	}
	// Quartiles of 1..8 by nearest rank are 2 and 6, the median 4.5.
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8}); math.Abs(got-4/4.5) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, 4/4.5)
	}
	if xs[0] != 5 {
		t.Error("helpers must not reorder their input")
	}
}

func TestArrivals(t *testing.T) {
	window := 200 * time.Millisecond
	a, b := arrivals(3, 5000, window, 2), arrivals(3, 5000, window, 2)
	n := 0
	for conn := range a {
		n += len(a[conn])
		if !sort.SliceIsSorted(a[conn], func(i, j int) bool { return a[conn][i] < a[conn][j] }) {
			t.Errorf("connection %d's schedule is not in time order", conn)
		}
		for i, d := range a[conn] {
			if d < 0 || d >= window {
				t.Fatalf("arrival %v outside the window", d)
			}
			if d != b[conn][i] {
				t.Fatal("same seed, different schedule")
			}
		}
	}
	if n != 1000 {
		t.Errorf("%d arrivals, want exactly rate×window = 1000", n)
	}
	if c := arrivals(4, 5000, window, 2); c[0][0] == a[0][0] && c[1][0] == a[1][0] {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
}

func TestCanonicalAndModel(t *testing.T) {
	if got, want := canonical("r0(_G12,v3) :- aux(_G12,_G9)."), canonical("r0(_G7,v3) :- aux(_G7,_G8)."); got != want {
		t.Errorf("renamed clauses differ: %q vs %q", got, want)
	}
	if canonical("p(_G1,_G2).") == canonical("p(_G1,_G1).") {
		t.Error("canonical must keep variable identity")
	}
	k := generate(1, smokeShape)
	p := hotSet(k)[0]
	acked := []op{
		{kind: opAssert, text: p.name + "(w1, 100000001)"},
		{kind: opAssert, text: p.name + "(w2, 100000002)"},
		{kind: opRetract, text: p.name + "(w1, 100000001)"},
	}
	want, err := model([]*predicate{p}, acked)
	if err != nil {
		t.Fatal(err)
	}
	lines := want[p.name]
	if len(lines) != len(p.clauses)+1 || lines[len(lines)-1] != p.name+"(w2,100000002)." {
		t.Errorf("model ends %q with %d lines, want the base %d plus w2", lines[len(lines)-1], len(lines), len(p.clauses))
	}
	if _, err := model([]*predicate{p}, []op{{kind: opRetract, text: p.name + "(w9, 100000009)"}}); err == nil {
		t.Error("retracting a clause nobody asserted must fail the model")
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	mv := func(rounds ...float64) metricValue { return metricValue{Value: median(rounds), Rounds: rounds} }
	steady := mv(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		cur  metricValue
		want verdict
	}{
		{"same", steady, verdictOK},
		{"within bound", mv(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), verdictOK},
		{"beyond bound", mv(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), verdictRegressed},
		{"wide and overlapping", mv(60, 150, 80, 140, 100, 90, 130, 70, 120, 110), verdictUnresolved},
		{"wide but every round better", mv(40, 90, 50, 80, 60, 45, 85, 55, 75, 65), verdictOK},
		{"wide and every round worse", mv(140, 290, 150, 280, 160, 145, 285, 155, 275, 165), verdictRegressed},
	} {
		if got := judge(def, steady, tc.cur); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	up := metricDef{Name: "ops_s", Better: "higher", Bound: 0.10}
	if got := judge(up, steady, mv(80, 81, 79, 80, 82, 78, 80, 81, 79, 80)); got != verdictRegressed {
		t.Errorf("a rate 20%% lower is %s, want regressed", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, bench defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the bench %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the bench", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the bench %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload end to end and traced on the tiny
// knowledge base: every gate must be green and every metric reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				out := t.TempDir()
				d, err := run(runConfig{w: w, seed: 5, seconds: 0.5, traced: traced, shape: smokeShape, outDir: out})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d failed: %s (gates %v)", traced, d.Failed, d.Attempted, d.FirstError, d.Gates)
				}
				wantGates := []string{"oracle", "replies"}
				defs := endToEnd
				if traced {
					wantGates, defs = append(wantGates, "traced"), perLayer
				}
				if w.writer {
					wantGates = append(wantGates, "durability.live")
				}
				if w.writeView {
					wantGates = append(wantGates, "durability.reopened")
				}
				for _, g := range wantGates {
					if d.Gates[g] != "green" {
						t.Errorf("traced=%v: gate %s is %q", traced, g, d.Gates[g])
					}
				}
				if len(d.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(d.Metrics), len(defs))
				}
				for _, def := range defs {
					m, ok := d.Metrics[def.Name]
					if !ok || m.Unit != def.Unit {
						t.Errorf("traced=%v: metric %s missing or in %q, want %q", traced, def.Name, m.Unit, def.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", def.Name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			}
		})
	}
}

// TestOpenLoopAccounting checks the open loop's book-keeping on a live
// stack: every scheduled request is sent exactly once, filed under the
// round it was due in, and timed from its due time (so its latency is
// never less than how late it was sent).
func TestOpenLoopAccounting(t *testing.T) {
	s, err := setUp(9, smokeShape, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.tearDown()
	w := workloadByName("point_open")
	roundLen := 20 * time.Millisecond
	m := measure(w, s.clients, streams(w, s.kb, 9), 9, roundLen)
	due := arrivals(9, openRate, rounds*roundLen, clientCount)
	for i, c := range m.clients {
		if c.failed != 0 {
			t.Fatalf("client %d: %v", i, c.firstErr)
		}
		perRound := make([]int, rounds)
		for _, d := range due[i] {
			perRound[d/roundLen]++
		}
		for r := 0; r < rounds; r++ {
			if len(c.lat[r]) != perRound[r] || len(c.late[r]) != perRound[r] {
				t.Errorf("client %d round %d: %d samples, %d were due", i, r, len(c.lat[r]), perRound[r])
			}
			for j := range c.lat[r] {
				if c.late[r][j] < 0 || c.lat[r][j] < c.late[r][j] {
					t.Errorf("client %d round %d: latency %vµs, sent %vµs late", i, r, c.lat[r][j], c.late[r][j])
				}
			}
		}
	}
}
