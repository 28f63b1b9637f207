package core

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clare/internal/disk"
	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/telemetry"
)

// telemetryRetriever builds a pooled retriever wired to a fresh registry
// and tracer.
func telemetryRetriever(t *testing.T, boards int) (*Retriever, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Boards = boards
	cfg.StreamChunkEntries = 16
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(128)
	r := buildRetriever(t, cfg, 120, 6)
	return r, cfg.Metrics, cfg.Tracer
}

// TestRetrievalSpanTree: on both engines and in every mode the span tree
// is exactly the root plus the stages that ran — the same spans for a
// one-chunk predicate and a 25-chunk one — and every span's simulated
// time is the matching StageStats field. Only the sim engine leases a
// board and streams in chunks, so only its trees carry a board_lease span
// and a chunks attribute; a native retrieval reads no simulated disk, so
// only its mode fs1, gathering the survivors' records, has a disk_fetch.
func TestRetrievalSpanTree(t *testing.T) {
	stagesRan := map[Engine]map[SearchMode][]string{
		EngineSim: {
			ModeSoftware: {"board_lease", "disk_fetch", "host_match"},
			ModeFS1:      {"board_lease", "encode", "fs1_scan", "disk_fetch"},
			ModeFS2:      {"board_lease", "encode", "disk_fetch", "fs2_match"},
			ModeFS1FS2:   {"board_lease", "encode", "fs1_scan", "disk_fetch", "fs2_match"},
		},
		EngineNative: {
			ModeSoftware: {"host_match"},
			ModeFS1:      {"encode", "fs1_scan", "disk_fetch"},
			ModeFS2:      {"encode", "fs2_match"},
			ModeFS1FS2:   {"encode", "fs1_scan", "fs2_match"},
		},
	}
	goal := parse.MustTerm("married_couple(husband3, X)")
	for _, engine := range []Engine{EngineSim, EngineNative} {
		for _, mode := range modes() {
			t.Run(engine.String()+"/"+mode.String(), func(t *testing.T) {
				var spanCounts []int
				for _, clauses := range []int{10, 400} {
					cfg := DefaultConfig()
					cfg.Engine = engine
					cfg.StreamChunkEntries = 16
					cfg.Tracer = telemetry.NewTracer(4)
					r := buildRetriever(t, cfg, clauses, 0)
					rt, err := r.Retrieve(goal, mode)
					if err != nil {
						t.Fatal(err)
					}
					wantChunks := 0
					if mode == ModeFS1FS2 && engine == EngineSim {
						wantChunks = (clauses + 15) / 16
					}
					if rt.Stats.Chunks != wantChunks {
						t.Fatalf("%d clauses: Stats.Chunks = %d, want %d", clauses, rt.Stats.Chunks, wantChunks)
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
					if root.Sim != rt.Stats.Total {
						t.Errorf("root sim %v != Stats.Total %v", root.Sim, rt.Stats.Total)
					}
					var got []string
					for _, sp := range tr.Spans[1:] {
						got = append(got, sp.Name)
						if sp.Parent != root.ID {
							t.Errorf("%s parent = %d, want root %d", sp.Name, sp.Parent, root.ID)
						}
						wantSim := map[string]time.Duration{
							"fs1_scan":   rt.Stats.FS1Scan,
							"disk_fetch": rt.Stats.DiskFetch,
							"fs2_match":  rt.Stats.FS2Match,
							"host_match": rt.Stats.HostMatch,
						}[sp.Name]
						if sp.Sim != wantSim {
							t.Errorf("%s sim = %v, want the Stats field %v", sp.Name, sp.Sim, wantSim)
						}
						if sp.Name == "fs1_scan" && mode == ModeFS1FS2 && wantChunks > 0 && sp.Attrs["chunks"] != strconv.Itoa(wantChunks) {
							t.Errorf("fs1_scan chunks attr = %q, want %d", sp.Attrs["chunks"], wantChunks)
						}
						if _, ok := sp.Attrs["chunks"]; ok && wantChunks == 0 {
							t.Errorf("%s carries a chunks attr on a retrieval that streamed no chunks", sp.Name)
						}
					}
					want := stagesRan[engine][mode]
					if !slices.Equal(got, want) {
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
}

// TestArmedRetrievalAllocsFlat: with registry, tracer and flight ring all
// armed, a native fs1+fs2 retrieval allocates the same number of objects
// over one pipeline chunk's worth of index as over 25 — nothing per-chunk
// is done or recorded.
func TestArmedRetrievalAllocsFlat(t *testing.T) {
	goal := parse.MustTerm("married_couple(husband3, X)")
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
				if rt, err := r.Retrieve(goal, ModeFS1FS2); err != nil || len(rt.Candidates) != 1 {
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
// Chunks, span Sim and flight sim_ns zero, nothing charged to DiskStats —
// and the registry lists no clare_disk_* family and no clock="sim"
// series, while the wall-clock ones are observed.
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
		for _, sp := range rt.Trace().Spans {
			if sp.Sim != 0 {
				t.Errorf("%v: span %s sim = %v", mode, sp.Name, sp.Sim)
			}
		}
	}
	for _, rec := range cfg.Flight.Snapshot(0) {
		if rec.SimNS != 0 {
			t.Errorf("flight record %+v has sim_ns", rec)
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
	for _, banned := range []string{"clare_disk_", `clock="sim"`} {
		if strings.Contains(out, banned) {
			t.Errorf("native exposition lists %s", banned)
		}
	}
	if !strings.Contains(out, `clare_retrieval_seconds_count{clock="wall",mode="fs1+fs2"} 2`) {
		t.Error("native exposition lacks the wall-clock retrieval series")
	}
}

// TestFailedRetrievalRecorded: a retrieval that fails past the predicate
// lookup goes through the same record path as a served one — the flight
// ring holds it with Err set and the trace root carries the error.
func TestFailedRetrievalRecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracer = telemetry.NewTracer(4)
	cfg.Flight = telemetry.NewFlightRecorder(4)
	r := buildRetriever(t, cfg, 10, 0)
	if _, err := r.RetrieveTraced(parse.MustTerm("married_couple(husband3, X)"), SearchMode(9), nil); err == nil {
		t.Fatal("unknown mode did not fail")
	}
	recs := cfg.Flight.Snapshot(0)
	if len(recs) != 1 || !strings.Contains(recs[0].Err, "unknown mode") || recs[0].Predicate != "married_couple/2" {
		t.Fatalf("flight ring after a failed retrieval = %+v", recs)
	}
	last := cfg.Tracer.Last(1)
	if len(last) != 1 || last[0].TraceID != recs[0].TraceID || !strings.Contains(last[0].Root().Attrs["error"], "unknown mode") {
		t.Errorf("failed retrieval's trace = %+v", last)
	}
}

// TestRetrievalMetrics: the registry must expose per-mode counters and
// per-stage histograms in both clocks after a mixed workload.
func TestRetrievalMetrics(t *testing.T) {
	r, reg, _ := telemetryRetriever(t, 2)
	for _, mode := range modes() {
		if _, err := r.Retrieve(parse.MustTerm("married_couple(husband3, X)"), mode); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`clare_retrievals_total{mode="software"} 1`,
		`clare_retrievals_total{mode="fs1+fs2"} 1`,
		`clare_retrieval_seconds_count{clock="sim",mode="fs2"} 1`,
		`clare_retrieval_seconds_count{clock="wall",mode="fs2"} 1`,
		`clare_stage_seconds_count{clock="sim",stage="fs1_scan"}`,
		`clare_stage_seconds_count{clock="wall",stage="fs1_scan"}`,
		`clare_stage_seconds_count{clock="sim",stage="fs2_match"}`,
		`clare_stage_seconds_count{clock="wall",stage="fs2_match"}`,
		`clare_stage_seconds_count{clock="sim",stage="host_match"} 1`,
		`clare_stage_candidates_total{stage="input"}`,
		`clare_disk_bytes_read_total{slot="0"}`,
		`clare_fs2_clauses_examined_total{slot="0"}`,
		`clare_vme_control_writes_total{board="fs2",slot="0"}`,
		`clare_qcache_misses_total`,
		`clare_board_lease_wait_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Registry counters must reconcile with the engine's own statistics.
	var examined float64
	for _, sv := range reg.Gather() {
		if sv.Name == "clare_fs2_clauses_examined_total" {
			examined += sv.Value
		}
	}
	if got := r.FS2Stats().ClausesExamined; float64(got) != examined {
		t.Errorf("registry examined %v != FS2Stats %d", examined, got)
	}
}

// TestUntracedRetrievalUnchanged: with no registry/tracer configured the
// retrieval must behave exactly as before (and carry no trace).
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
}

// TestStatsSnapshotDuringRetrievals: FS2Stats/DiskStats/QueryCache called
// concurrently with active retrievals must be race-free (run under -race)
// and deadlock-free, and must converge to the exact serial totals once
// the workload drains.
func TestStatsSnapshotDuringRetrievals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 4
	r := buildRetriever(t, cfg, 80, 5)
	goals := poolGoals()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers hammering the pool while retrievals run —
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
		t.Errorf("pooled FS2Stats %+v != serial %+v", got, want)
	}
	if got, want := r.DiskStats(), serial.DiskStats(); got != want {
		t.Errorf("pooled DiskStats %+v != serial %+v", got, want)
	}
}
