package core

import (
	"strconv"
	"sync"
	"time"

	"clare/internal/telemetry"
)

// stage indexes the per-stage slots of a retrieval's record, the stage
// histograms and the trace span taxonomy. The Retrieval is the source:
// the retrieve* functions write Stats (simulated time, counts) and lap
// the stage clock, nothing else, and record derives the registry
// observations, the flight record and the span tree from it in one
// place. The tree is therefore a view with a fixed
// shape — the root plus one span per stage that ran, whatever the
// predicate size, chunk count or engine:
//
//	retrieve       predicate, mode, board, candidates [degraded, retries, error]
//	├─ board_lease slot           (wall time waiting for a free unit; sim engine only)
//	├─ encode      cache=hit|miss (query-cache probe + SCW/PIF encode)
//	├─ fs1_scan    survivors, chunks (index scan through FS1, disk-bound)
//	├─ disk_fetch  bytes          (clause records off disk)
//	├─ fs2_match   examined       (partial test unification)
//	└─ host_match  examined       (software mode, and the host-only rung)
//
// A stage that interleaves per pipeline chunk (fs1+fs2 mode) is one span
// whose Wall is the sum over its slices and whose "chunks" attr says how
// many there were; per-chunk simulated time stays where it is exact, in
// Stats.Chunks and pipelineTime. Sim comes from the component models
// (the matching StageStats field, zero on the native engine, which keeps
// counts only), Wall from the host clock.
type stage int

const (
	stageLease stage = iota
	stageEncode
	stageFS1Scan
	stageDiskFetch
	stageFS2Match
	stageHostMatch
	numStages
)

var stageNames = [numStages]string{"board_lease", "encode", "fs1_scan", "disk_fetch", "fs2_match", "host_match"}

// stageClock splits a retrieval's host time between its stages with one
// clock read per stage boundary: lap charges the time since the previous
// boundary to a stage. The stages interleave per chunk in fs1+fs2 mode,
// so a stage's wall time is summed over its slices.
type stageClock struct {
	mark  time.Time            // the last boundary
	first [numStages]time.Time // when each stage first began; zero = never ran
	wall  [numStages]time.Duration
	total time.Duration // the whole call, set by record
}

func (c *stageClock) lap(s stage) {
	now := time.Now()
	if c.first[s].IsZero() {
		c.first[s] = c.mark
	}
	c.wall[s] += now.Sub(c.mark)
	c.mark = now
}

// sim reports the stage's simulated duration (zero for the stages with no
// hardware analogue).
func (st *StageStats) sim(s stage) time.Duration {
	switch s {
	case stageFS1Scan:
		return st.FS1Scan
	case stageDiskFetch:
		return st.DiskFetch
	case stageFS2Match:
		return st.FS2Match
	case stageHostMatch:
		return st.HostMatch
	}
	return 0
}

// coreMetrics pre-resolves every handle the retrieval hot path updates,
// so instrumentation costs one atomic op per touch (and literally nothing
// when no registry is configured: nil handles no-op).
type coreMetrics struct {
	retrievals    map[SearchMode]*telemetry.Counter
	errors        *telemetry.Counter
	retrievalSim  map[SearchMode]*telemetry.Histogram
	retrievalWall map[SearchMode]*telemetry.Histogram
	// stageWall[stageLease] is the lease-wait histogram (observed on the
	// sim engine only: a native retrieval leases nothing); the stages with
	// no hardware analogue have no sim series observed, and on the native
	// engine no sim series is registered at all.
	stageSim  [numStages]*telemetry.Histogram
	stageWall [numStages]*telemetry.Histogram

	clausesIn *telemetry.Counter
	afterFS1  *telemetry.Counter
	afterFS2  *telemetry.Counter
	chunks    *telemetry.Counter
	overflows *telemetry.Counter

	boardsBusy *telemetry.Gauge

	retriesC *telemetry.Counter
	degraded map[string]*telemetry.Counter
	faultsC  *telemetry.Counter

	flightRecords *telemetry.Counter

	// Ghost-ratio gauges. stage="fs1" is maintained here from cumulative
	// filter counts: the fraction of FS1 survivors that FS2 then rejected
	// (FS1's false drops, §2.1). stage="fs2" is set by Explain, which is
	// the only place host-unification survivor counts exist.
	ghostFS1 *telemetry.Gauge
	ghostFS2 *telemetry.Gauge
	// Cumulative candidate flows behind ghostFS1, counted only for
	// retrievals where both FS1 and FS2 actually ran.
	ghostMu        sync.Mutex
	ghostIn        int64
	ghostSurvivors int64
}

var allModes = []SearchMode{ModeSoftware, ModeFS1, ModeFS2, ModeFS1FS2}

func newCoreMetrics(reg *telemetry.Registry, e Engine) *coreMetrics {
	m := &coreMetrics{
		retrievals:    make(map[SearchMode]*telemetry.Counter, len(allModes)),
		retrievalSim:  make(map[SearchMode]*telemetry.Histogram, len(allModes)),
		retrievalWall: make(map[SearchMode]*telemetry.Histogram, len(allModes)),
	}
	// A native retrieval has no simulated time (EXPLAIN prices it), so
	// the native engine registers no clock="sim" series: nil handles.
	simReg := reg
	if e == EngineNative {
		simReg = nil
	}
	for _, mode := range allModes {
		ml := telemetry.Labels{"mode": mode.String()}
		m.retrievals[mode] = reg.Counter("clare_retrievals_total", "retrievals completed per search mode", ml)
		m.retrievalSim[mode] = simReg.Histogram("clare_retrieval_seconds", "whole-retrieval duration per mode and clock", nil,
			telemetry.Labels{"mode": mode.String(), "clock": "sim"})
		m.retrievalWall[mode] = reg.Histogram("clare_retrieval_seconds", "whole-retrieval duration per mode and clock", nil,
			telemetry.Labels{"mode": mode.String(), "clock": "wall"})
	}
	for s := stageEncode; s < numStages; s++ {
		m.stageSim[s] = simReg.Histogram("clare_stage_seconds", "per-stage duration per clock", nil,
			telemetry.Labels{"stage": stageNames[s], "clock": "sim"})
		m.stageWall[s] = reg.Histogram("clare_stage_seconds", "per-stage duration per clock", nil,
			telemetry.Labels{"stage": stageNames[s], "clock": "wall"})
	}
	m.stageWall[stageLease] = reg.Histogram("clare_board_lease_wait_seconds", "wall time a retrieval waited for a free board unit", nil, nil)
	m.errors = reg.Counter("clare_retrieval_errors_total", "retrievals that failed", nil)
	m.clausesIn = reg.Counter("clare_stage_candidates_total", "candidate counts entering/leaving each filter stage",
		telemetry.Labels{"stage": "input"})
	m.afterFS1 = reg.Counter("clare_stage_candidates_total", "candidate counts entering/leaving each filter stage",
		telemetry.Labels{"stage": "after_fs1"})
	m.afterFS2 = reg.Counter("clare_stage_candidates_total", "candidate counts entering/leaving each filter stage",
		telemetry.Labels{"stage": "after_fs2"})
	m.chunks = reg.Counter("clare_pipeline_chunks_total", "FS1→FS2 pipeline chunks streamed", nil)
	m.overflows = reg.Counter("clare_result_overflows_total", "retrievals that overflowed the Result Memory", nil)
	m.boardsBusy = reg.Gauge("clare_boards_busy", "retrievals executing on the engine now (sim: board units leased; native: retrievals in flight)", nil)
	m.retriesC = reg.Counter("clare_retrieval_retries_total", "retrieval attempts re-run after an injected fault", nil)
	m.degraded = map[string]*telemetry.Counter{
		"fs2": reg.Counter("clare_degraded_retrievals_total", "retrievals that fell down the degradation ladder, by rung",
			telemetry.Labels{"to": "fs2"}),
		"host": reg.Counter("clare_degraded_retrievals_total", "retrievals that fell down the degradation ladder, by rung",
			telemetry.Labels{"to": "host"}),
	}
	m.faultsC = reg.Counter("clare_retrieval_faults_total", "injected faults absorbed by retrievals", nil)
	m.flightRecords = reg.Counter("clare_flight_records_total", "retrievals captured into the flight recorder ring", nil)
	m.ghostFS1 = reg.Gauge("clare_stage_ghost_ratio", "fraction of a stage's survivors rejected by the next filter rung",
		telemetry.Labels{"stage": "fs1"})
	m.ghostFS2 = reg.Gauge("clare_stage_ghost_ratio", "fraction of a stage's survivors rejected by the next filter rung",
		telemetry.Labels{"stage": "fs2"})
	return m
}

// record is the one place a finished retrieval is observed: the registry,
// the span tree and the flight record are all derived here from rt (and
// err, for a retrieval that failed past the predicate lookup), so the
// search modes carry no bookkeeping of their own.
func (r *Retriever) record(rt *Retrieval, start time.Time, tc *telemetry.TraceContext, err error) {
	st := &rt.Stats
	rt.wall.total = time.Since(start)
	r.met.observe(rt, err)
	if r.tracer != nil {
		rt.trace = r.spanTree(rt, start, tc, err)
	}
	if f := r.cfg.Flight; f != nil {
		rec := &telemetry.FlightRecord{
			TS:        start.UnixNano(),
			TraceID:   rt.TraceID(),
			Predicate: rt.Predicate,
			Mode:      rt.Mode.String(),
			Total:     int64(st.TotalClauses),
			AfterFS1:  int64(st.AfterFS1),
			AfterFS2:  int64(st.AfterFS2),
			SimNS:     int64(st.Total),
			WallNS:    int64(rt.wall.total),
			Degraded:  st.Degraded,
			Faults:    int64(st.Faults),
			Retries:   int64(st.Retries),
		}
		if err != nil {
			rec.Err = err.Error()
		}
		f.Record(rec)
		r.met.flightRecords.Inc()
	}
}

// spanTree renders the retrieval's record as its fixed-shape trace and
// files it in the tracer's ring.
func (r *Retriever) spanTree(rt *Retrieval, start time.Time, tc *telemetry.TraceContext, err error) *telemetry.Trace {
	st := &rt.Stats
	tr := r.tracer.StartAt("retrieve", tc, start)
	root := tr.Root()
	root.Wall, root.Sim = rt.wall.total, st.Total
	root.SetAttr("predicate", rt.Predicate)
	root.SetAttr("mode", rt.Mode.String())
	if rt.slot >= 0 {
		root.SetAttr("board", strconv.Itoa(rt.slot))
	}
	if st.Degraded != "" {
		root.SetAttr("degraded", st.Degraded)
	}
	if st.Retries > 0 {
		root.SetAttr("retries", strconv.Itoa(st.Retries))
	}
	if err != nil {
		root.SetAttr("error", err.Error())
	} else {
		root.SetAttr("candidates", strconv.Itoa(len(rt.Candidates)))
	}
	for s := stage(0); s < numStages; s++ {
		if rt.wall.first[s].IsZero() {
			continue
		}
		sp := tr.Record(root, stageNames[s], rt.wall.first[s], rt.wall.wall[s], st.sim(s))
		switch s {
		case stageLease:
			sp.SetAttr("slot", strconv.Itoa(rt.slot))
		case stageEncode:
			cache := "miss"
			if st.QueryCacheHit {
				cache = "hit"
			}
			sp.SetAttr("cache", cache)
		case stageFS1Scan:
			sp.SetAttr("survivors", strconv.Itoa(st.AfterFS1))
			if st.Chunks > 0 {
				sp.SetAttr("chunks", strconv.Itoa(st.Chunks))
			}
		case stageDiskFetch:
			sp.SetAttr("bytes", strconv.Itoa(st.ClauseBytes))
		case stageFS2Match, stageHostMatch:
			sp.SetAttr("examined", strconv.Itoa(st.AfterFS1))
		}
	}
	r.tracer.Finish(tr)
	return tr
}

// observe publishes one finished retrieval into the registry.
func (m *coreMetrics) observe(rt *Retrieval, err error) {
	st := &rt.Stats
	m.retriesC.Add(int64(st.Retries))
	m.faultsC.Add(int64(st.Faults))
	if err != nil {
		m.errors.Inc()
		return
	}
	m.retrievals[rt.Mode].Inc()
	m.retrievalSim[rt.Mode].ObserveDuration(st.Total)
	m.retrievalWall[rt.Mode].ObserveDuration(rt.wall.total)
	for s := stage(0); s < numStages; s++ {
		if d := st.sim(s); d > 0 {
			m.stageSim[s].ObserveDuration(d)
		}
		if !rt.wall.first[s].IsZero() {
			m.stageWall[s].ObserveDuration(rt.wall.wall[s])
		}
	}
	m.clausesIn.Add(int64(st.TotalClauses))
	m.afterFS1.Add(int64(st.AfterFS1))
	m.afterFS2.Add(int64(st.AfterFS2))
	if m.ghostFS1 != nil && rt.Mode == ModeFS1FS2 && st.Degraded == "" && st.AfterFS1 > 0 {
		m.ghostMu.Lock()
		m.ghostIn += int64(st.AfterFS1)
		m.ghostSurvivors += int64(st.AfterFS2)
		m.ghostFS1.Set(1 - float64(m.ghostSurvivors)/float64(m.ghostIn))
		m.ghostMu.Unlock()
	}
	m.chunks.Add(int64(st.Chunks))
	if st.Overflowed {
		m.overflows.Inc()
	}
	if st.Degraded != "" {
		m.degraded[st.Degraded].Inc()
	}
}
