package core

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clare/internal/disk"
	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/telemetry"
)

// telemetryRetriever builds a native retriever wired to a fresh registry
// and tracer.
func telemetryRetriever(t *testing.T) (*Retriever, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(128)
	r := buildRetriever(t, cfg, 120, 6)
	return r, cfg.Metrics, cfg.Tracer
}

// TestSimRefusesTelemetry: the sim engine reports simulated time through
// Stats only, so NewWithSymbols refuses it a registry, a tracer or a
// flight ring with a one-line error; the native engine takes all three,
// and the sim engine still takes a fault injector.
func TestSimRefusesTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine Engine
		arm    func(*Config)
		refuse bool
	}{
		{"sim/metrics", EngineSim, func(c *Config) { c.Metrics = telemetry.NewRegistry() }, true},
		{"sim/tracer", EngineSim, func(c *Config) { c.Tracer = telemetry.NewTracer(4) }, true},
		{"sim/flight", EngineSim, func(c *Config) { c.Flight = telemetry.NewFlightRecorder(4) }, true},
		{"sim/faults", EngineSim, func(c *Config) {
			c.Faults = fault.New(1).Add(fault.Rule{Site: fault.SiteFS2, Probability: 1})
		}, false},
		{"native/all", EngineNative, func(c *Config) {
			c.Metrics = telemetry.NewRegistry()
			c.Tracer = telemetry.NewTracer(4)
			c.Flight = telemetry.NewFlightRecorder(4)
		}, false},
	} {
		cfg := DefaultConfig()
		cfg.Engine = tc.engine
		tc.arm(&cfg)
		_, err := New(cfg)
		switch {
		case tc.refuse && (err == nil || strings.Contains(err.Error(), "\n")):
			t.Errorf("%s: err = %v, want a one-line refusal", tc.name, err)
		case !tc.refuse && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		}
	}
}

// TestRetrievalSpanTree: in every mode a traced retrieval's span tree is
// exactly the root plus the stages that ran — the same spans for a
// 10-clause predicate and a 400-clause one — every span hangs from the
// root, and none carries a per-chunk attr. A native retrieval reads no
// simulated disk, so only its mode fs1, gathering the survivors' records,
// has a disk_fetch.
func TestRetrievalSpanTree(t *testing.T) {
	stagesRan := map[SearchMode][]string{
		ModeSoftware: {"host_match"},
		ModeFS1:      {"encode", "fs1_scan", "disk_fetch"},
		ModeFS2:      {"encode", "fs2_match"},
		ModeFS1FS2:   {"encode", "fs1_scan", "fs2_match"},
	}
	goal := parse.MustTerm("married_couple(husband3, X)")
	for _, mode := range modes() {
		t.Run("native/"+mode.String(), func(t *testing.T) {
			var spanCounts []int
			for _, clauses := range []int{10, 400} {
				cfg := DefaultConfig()
				cfg.Engine = EngineNative
				cfg.Tracer = telemetry.NewTracer(4)
				r := buildRetriever(t, cfg, clauses, 0)
				rt, err := r.RetrieveTraced(goal, mode, &telemetry.TraceContext{TraceID: 7, ParentSpan: 1})
				if err != nil {
					t.Fatal(err)
				}
				tr := rt.Trace()
				if tr == nil {
					t.Fatal("retrieval carried no trace")
				}
				if last := cfg.Tracer.Last(1); len(last) != 1 || last[0] != tr {
					t.Error("finished trace not in the tracer ring")
				}
				root := tr.Root()
				if root.Name != "retrieve" || root.Attrs["predicate"] != "married_couple/2" ||
					root.Attrs["mode"] != mode.String() || root.Attrs["candidates"] != "1" {
					t.Errorf("root span = %+v", root)
				}
				var got []string
				for _, sp := range tr.Spans[1:] {
					got = append(got, sp.Name)
					if sp.Parent != root.ID {
						t.Errorf("%s parent = %d, want root %d", sp.Name, sp.Parent, root.ID)
					}
					if _, ok := sp.Attrs["chunks"]; ok {
						t.Errorf("%s carries a chunks attr", sp.Name)
					}
				}
				if want := stagesRan[mode]; !slices.Equal(got, want) {
					t.Errorf("%d clauses: stage spans = %v, want %v", clauses, got, want)
				}
				spanCounts = append(spanCounts, len(tr.Spans))
			}
			if spanCounts[0] != spanCounts[1] {
				t.Errorf("span count depends on predicate size: %v", spanCounts)
			}
		})
	}
}

// TestArmedRetrievalAllocsFlat: with registry, tracer and flight ring all
// armed, a traced native fs1+fs2 retrieval allocates the same number of
// objects over one pipeline chunk's worth of index as over 25 — nothing
// per-chunk is done or recorded.
func TestArmedRetrievalAllocsFlat(t *testing.T) {
	goal := parse.MustTerm("married_couple(husband3, X)")
	tc := &telemetry.TraceContext{TraceID: 7, ParentSpan: 1}
	allocs := func(clauses int) float64 {
		cfg := DefaultConfig()
		cfg.Engine = EngineNative
		cfg.StreamChunkEntries = 16
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Tracer = telemetry.NewTracer(4)
		cfg.Flight = telemetry.NewFlightRecorder(4)
		r := buildRetriever(t, cfg, clauses, 0)
		// The minimum over single runs: under -race sync.Pool drops arenas
		// at random, and a rebuilt arena is not the retrieval's cost.
		best := math.Inf(1)
		for i := 0; i < 50; i++ {
			best = min(best, testing.AllocsPerRun(1, func() {
				if rt, err := r.RetrieveTraced(goal, ModeFS1FS2, tc); err != nil || len(rt.Candidates) != 1 {
					t.Fatalf("retrieve: %v", err)
				}
			}))
		}
		return best
	}
	if one, many := allocs(10), allocs(400); one != many {
		t.Errorf("allocs per retrieval: %v over 1 chunk, %v over 25", one, many)
	}
}

// TestNativeRetrievalKeepsCounts: a native retrieval, in every mode and
// on the host rung, keeps counts only — zero simulated stage times and
// Chunks, nothing charged to DiskStats — and the registry's exposition
// has one clock: no clock label, no board-lease histogram and no disk,
// FS2-board or VME-bus family, while the host-time series are observed.
func TestNativeRetrievalKeepsCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.StreamChunkEntries = 16
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(8)
	cfg.Flight = telemetry.NewFlightRecorder(8)
	cfg.RetryBackoff = time.Microsecond
	cfg.Faults = fault.New(1).Add(fault.Rule{Site: fault.SiteRetrieve, Key: "married_couple/2", Nth: 1, Limit: 3})
	r := buildRetriever(t, cfg, 400, 6)
	goal := parse.MustTerm("married_couple(husband3, X)")
	for i, mode := range append([]SearchMode{ModeFS1FS2}, modes()...) {
		rt, err := r.Retrieve(goal, mode)
		if err != nil {
			t.Fatal(err)
		}
		if host := i == 0; (rt.Stats.Degraded == "host") != host {
			t.Fatalf("%v: degraded %q, want the host rung on the first retrieval only", mode, rt.Stats.Degraded)
		}
		st := rt.Stats
		if st.FS1Scan != 0 || st.DiskFetch != 0 || st.FS2Match != 0 || st.HostMatch != 0 || st.Total != 0 || st.Chunks != 0 {
			t.Errorf("%v: native retrieval carries a simulated ledger: %+v", mode, st)
		}
	}
	if ds := r.DiskStats(); ds != (disk.Stats{}) {
		t.Errorf("DiskStats = %+v, want zero", ds)
	}
	var sb strings.Builder
	if err := cfg.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if banned := regexp.MustCompile(`clock=|clare_board_lease_wait_seconds|clare_(disk|fs2|vme)_|clare_(pipeline_chunks|result_overflows)_total`).FindString(out); banned != "" {
		t.Errorf("native exposition lists %s", banned)
	}
	if !strings.Contains(out, `clare_retrieval_seconds_count{mode="fs1+fs2"} 2`) {
		t.Error("native exposition lacks the retrieval duration series")
	}
}

// TestFailedRetrievalRecorded: a traced retrieval that fails past the
// predicate lookup goes through the same record path as a served one —
// the flight ring holds it with Err set and the trace root carries the
// error.
func TestFailedRetrievalRecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.Tracer = telemetry.NewTracer(4)
	cfg.Flight = telemetry.NewFlightRecorder(4)
	r := buildRetriever(t, cfg, 10, 0)
	tc := &telemetry.TraceContext{TraceID: 7, ParentSpan: 1}
	if _, err := r.RetrieveTraced(parse.MustTerm("married_couple(husband3, X)"), SearchMode(9), tc); err == nil {
		t.Fatal("unknown mode did not fail")
	}
	recs := cfg.Flight.Snapshot(0)
	if len(recs) != 1 || !strings.Contains(recs[0].Err, "unknown mode") || recs[0].Predicate != "married_couple/2" ||
		recs[0].CallerTraceID != tc.TraceID {
		t.Fatalf("flight ring after a failed retrieval = %+v", recs)
	}
	last := cfg.Tracer.Last(1)
	if len(last) != 1 || last[0].TraceID != recs[0].TraceID || !strings.Contains(last[0].Root().Attrs["error"], "unknown mode") {
		t.Errorf("failed retrieval's trace = %+v", last)
	}
}

// TestRetrievalMetrics: the registry must expose per-mode counters and
// per-mode and per-stage duration histograms after a mixed workload, and
// its candidate counters must reconcile with the retrievals' Stats.
func TestRetrievalMetrics(t *testing.T) {
	r, reg, _ := telemetryRetriever(t)
	clauses := 0
	for _, mode := range modes() {
		rt, err := r.Retrieve(parse.MustTerm("married_couple(husband3, X)"), mode)
		if err != nil {
			t.Fatal(err)
		}
		clauses += rt.Stats.TotalClauses
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`clare_retrievals_total{mode="software"} 1`,
		`clare_retrievals_total{mode="fs1+fs2"} 1`,
		`clare_retrieval_seconds_count{mode="fs2"} 1`,
		`clare_stage_seconds_count{stage="encode"} 3`,
		`clare_stage_seconds_count{stage="fs1_scan"} 2`,
		`clare_stage_seconds_count{stage="fs2_match"} 2`,
		`clare_stage_seconds_count{stage="host_match"} 1`,
		fmt.Sprintf(`clare_stage_candidates_total{stage="input"} %d`, clauses),
		`clare_qcache_misses_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUntracedRetrievalUnchanged: with no registry/tracer configured the
// retrieval must behave exactly as before (and carry no trace); with a
// tracer armed, a call without a trace context records no tree either.
func TestUntracedRetrievalUnchanged(t *testing.T) {
	r := buildRetriever(t, DefaultConfig(), 40, 5)
	rt, err := r.Retrieve(parse.MustTerm("married_couple(X, Y)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Trace() != nil {
		t.Error("untraced retrieval carried a trace")
	}
	if r.Metrics() != nil || r.Tracer() != nil {
		t.Error("accessors should be nil without telemetry")
	}
	armed, _, tracer := telemetryRetriever(t)
	if rt, err = armed.Retrieve(parse.MustTerm("married_couple(X, Y)"), ModeFS1FS2); err != nil {
		t.Fatal(err)
	}
	if rt.Trace() != nil || rt.TraceID() != 0 || len(tracer.Last(0)) != 0 {
		t.Errorf("untraced retrieval on an armed retriever left a trace: %d in the ring", len(tracer.Last(0)))
	}
}

// TestStatsSnapshotDuringRetrievals: FS2Stats/DiskStats/QueryCache called
// concurrently with active retrievals must be race-free (run under -race)
// and deadlock-free, and must converge to the exact serial totals once
// the workload drains.
func TestStatsSnapshotDuringRetrievals(t *testing.T) {
	r := buildRetriever(t, DefaultConfig(), 80, 5)
	goals := poolGoals()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers hammering the retriever while retrievals run —
	// including two concurrent readers, which deadlocked the old
	// quiesce-based implementation.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.FS2Stats()
				_ = r.DiskStats()
				_ = r.QueryCache()
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				g := goals[(w+i)%len(goals)]
				if _, err := r.Retrieve(parse.MustTerm(g), ModeFS1FS2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	wg.Wait()

	// Drained: snapshots must now equal an identical serial run's totals.
	serial := buildRetriever(t, DefaultConfig(), 80, 5)
	for w := 0; w < 8; w++ {
		for i := 0; i < 25; i++ {
			g := goals[(w+i)%len(goals)]
			if _, err := serial.Retrieve(parse.MustTerm(g), ModeFS1FS2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := r.FS2Stats(), serial.FS2Stats(); got != want {
		t.Errorf("concurrent FS2Stats %+v != serial %+v", got, want)
	}
	if got, want := r.DiskStats(), serial.DiskStats(); got != want {
		t.Errorf("concurrent DiskStats %+v != serial %+v", got, want)
	}
}
