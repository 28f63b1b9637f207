package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"clare/internal/core"
)

const (
	// setupRepeats is how many times a run sets the whole stack up;
	// setup_s is the median, the last stack serves the run.
	setupRepeats = 3
	// untracedShare of a traced run's seconds goes to a plain load
	// segment first (the loadgen.* metrics); the rest is the traced pass.
	untracedShare = 0.3
)

// runConfig is one invocation: a workload, a seed, how long to measure
// and whether this is the traced pass.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	shape   shape
	outDir  string
}

// runDetail is everything one run found: the contract's result line is
// cut from it, and the full record is what `bench compare` reads.
type runDetail struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Seconds    float64                `json:"seconds"`
	Env        envStamp               `json:"env"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FirstError string                 `json:"first_error,omitempty"`
	Gates      map[string]string      `json:"gates"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// overRounds is the median over rounds of a per-round statistic, with
// its spread and the rounds themselves.
func overRounds(unit string, perRound []float64, n int) metricValue {
	return metricValue{Value: median(perRound), Unit: unit, MAD: mad(perRound), N: n, Rounds: perRound}
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// run executes one invocation and returns its record. An error means the
// run could not be carried out at all; wrong or failed answers are in
// the record.
func run(cfg runConfig) (*runDetail, error) {
	d := &runDetail{
		Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds,
		Gates: make(map[string]string), Metrics: make(map[string]metricValue),
	}
	d.Env = stampEnv(cfg)
	if d.Env.LoadAvg1 > float64(d.Env.NProc) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load average %.2f exceeds nproc %d; timings will be noisy\n", d.Env.LoadAvg1, d.Env.NProc)
	}

	// Set-up, several times: the median is setup_s.
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	var s *stack
	var setups []float64
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.tearDown()
			s = nil
			runtime.GC()
		}
		var err error
		s, err = setUp(cfg.seed, cfg.shape, filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%d-%d", os.Getpid(), i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.times.Total.Seconds())
	}
	defer s.tearDown()

	var total gate
	record := func(name string, g gate) {
		total.add(g)
		if g.failed == 0 {
			d.Gates[name] = "green"
		} else {
			d.Gates[name] = fmt.Sprintf("RED: %d of %d: %v", g.failed, g.attempted, g.firstErr)
		}
	}

	og, ledger := oracleCheck(s, cfg.w, cfg.seed)
	record("oracle", og)
	// From here on the process should hold what a crsd and a crsrouter
	// hold, not the generator's and the oracle's copies of the knowledge
	// base as well: a heap three times the system's own would have the
	// garbage collector, not the system, set the latencies.
	var keep []*predicate
	if cfg.w.writer {
		keep = hotSet(s.kb) // the write gates' model starts from these
	}
	s.releaseSource(keep)

	next := streams(cfg.w, s.kb, cfg.seed)
	var acked []op
	if err := warmUp(s.clients, next, &acked); err != nil {
		return nil, err
	}

	seconds := cfg.seconds
	if cfg.traced {
		seconds *= untracedShare
	}
	roundLen := time.Duration(seconds / rounds * float64(time.Second))
	m := measure(cfg.w, s.clients, next, cfg.seed, roundLen)
	var load gate
	for _, c := range m.clients {
		load.add(gate{attempted: c.attempted, failed: c.failed, firstErr: c.firstErr})
		acked = append(acked, c.acked...)
	}
	record("replies", load)

	lat, late, active := m.class(cfg.w.writeView)
	var p50s, rates, cpus, pooled, pooledLate []float64
	n := 0
	for r := 0; r < rounds; r++ {
		all := 0
		for _, c := range m.clients {
			all += len(c.lat[r])
		}
		if len(lat[r]) == 0 || active[r] <= 0 {
			// A stall swallowed the round. Its operations are in the
			// rounds either side and in the whole-window tail; the
			// medians go over the rounds that have a statistic.
			continue
		}
		sort.Float64s(lat[r])
		p50s = append(p50s, percentileSorted(lat[r], 0.5))
		rates = append(rates, float64(len(lat[r]))/active[r].Seconds())
		cpus = append(cpus, m.cpu[r]*1e6/float64(all))
		pooled = append(pooled, lat[r]...)
		pooledLate = append(pooledLate, late[r]...)
		n += len(lat[r])
	}

	if n == 0 {
		return nil, fmt.Errorf("%s completed no operation in %v", cfg.w.name, rounds*roundLen)
	}
	sort.Float64s(pooled)
	sort.Float64s(pooledLate)

	if cfg.traced {
		if err := tracedPass(cfg, s, d, &acked, record); err != nil {
			return nil, err
		}
		d.Metrics["sim.ledger_us"] = metricValue{Value: float64(ledger) / 1e3, Unit: "sim-us"}
		d.Metrics["loadgen.late_p99_us"] = metricValue{Value: percentileSorted(pooledLate, 0.99), Unit: "us"}
		d.Metrics["loadgen.achieved_rate"] = metricValue{Value: float64(n) / m.elapsed.Seconds(), Unit: "1/s"}
		d.Metrics["loadgen.untraced_p50_us"] = overRounds("us", p50s, n)
		d.Metrics["loadgen.p99_us"] = metricValue{Value: percentileSorted(pooled, 0.99), Unit: "us"}
		d.Metrics["loadgen.p999_us"] = metricValue{Value: percentileSorted(pooled, 0.999), Unit: "us"}
		d.Metrics["loadgen.samples"] = metricValue{Value: float64(n), Unit: "count"}
		for name, t := range map[string]time.Duration{
			"core.build_s": s.times.Build, "core.save_s": s.times.Save, "core.load_mmap_s": s.times.Load,
			"crs.adopt_s": s.times.Adopt, "cluster.connect_s": s.times.Connect,
		} {
			d.Metrics[name] = metricValue{Value: t.Seconds(), Unit: "s"}
		}
	} else {
		d.Metrics["setup_s"] = overRounds("s", setups, len(setups))
		d.Metrics["p50_us"] = overRounds("us", p50s, n)
		// The tail is taken over the whole window, not per round: a
		// collection cycle spans about two rounds, so per-round tails
		// alternate between two levels and their median flips between them.
		d.Metrics["tail_us"] = metricValue{Value: percentileSorted(pooled, cfg.w.tail), Unit: "us", N: n}
		d.Metrics["ops_s"] = overRounds("1/s", rates, n)
		d.Metrics["cpu_us_per_op"] = overRounds("us", cpus, n)
		d.Metrics["store_bytes_per_clause"] = metricValue{Value: float64(s.storeBytes) / float64(s.kb.clauses), Unit: "B"}
	}

	// The log replay reported is the set-up's (an empty log) unless a
	// reopen gate replayed the run's writes.
	recoverTime, records := s.times.WAL, s.times.RecoverRecords
	if cfg.w.writer {
		recoverTime, records = writeGates(cfg, s, acked, record)
	}
	if cfg.traced {
		d.Metrics["wal.recover_s"] = metricValue{Value: recoverTime.Seconds(), Unit: "s"}
		d.Metrics["wal.recover_records"] = metricValue{Value: float64(records), Unit: "count"}
	} else {
		d.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	}

	d.Attempted, d.Failed = total.attempted, total.failed
	d.Correct = total.failed == 0
	if total.firstErr != nil {
		d.FirstError = total.firstErr.Error()
	}
	return d, nil
}

// writeGates checks a writer workload's end state against the
// sequential model of its acknowledged writes: live, and (from the
// writer's view, which is the run that answers for the write path) after
// a reopen. The reader's view of the same traffic skips the reopen: the
// replay rebuilds a predicate per record and takes as long as the run.
func writeGates(cfg runConfig, s *stack, acked []op, record func(string, gate)) (recoverTime time.Duration, records int) {
	touched := hotSet(s.kb)
	want, err := model(touched, acked)
	if err != nil {
		record("durability", gate{attempted: 1, failed: 1, firstErr: err})
		return s.times.WAL, s.times.RecoverRecords
	}
	record("durability.live", durabilityLive(s, touched, want))
	if !cfg.w.writeView {
		return s.times.WAL, s.times.RecoverRecords
	}
	g, recoverTime, records := durabilityReopened(s, touched, want)
	record("durability.reopened", g)
	return recoverTime, records
}

// tracedPass runs the per-layer pass on the live stack and files its
// metrics, then writes the spans out.
func tracedPass(cfg runConfig, s *stack, d *runDetail, acked *[]op, record func(string, gate)) error {
	vals := make(map[string]float64)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["core.heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	// The heap load crsd -mmap=false would do, for the cold-start claim.
	start := time.Now()
	for _, b := range s.backends {
		f, err := os.Open(b.path)
		if err != nil {
			return err
		}
		_, err = core.LoadRetriever(backendConfig(), f)
		f.Close()
		if err != nil {
			return fmt.Errorf("heap load of %s: %w", b.path, err)
		}
	}
	vals["core.load_heap_s"] = time.Since(start).Seconds()

	t, err := newTracer(s, cfg.w)
	if err != nil {
		return err
	}
	defer t.close()
	type counts struct {
		hits, misses, walBytes, walFsyncs, walAppends int64
	}
	snapshot := func() (c counts) {
		for _, b := range s.backends {
			qc := b.retr.QueryCache()
			ls := b.log.Stats()
			c.hits += qc.Hits
			c.misses += qc.Misses
			c.walBytes += ls.Bytes
			c.walFsyncs += ls.Fsyncs
			c.walAppends += ls.Appends
		}
		return c
	}
	before := snapshot()
	t.run(cfg.seed, time.Duration(cfg.seconds*(1-untracedShare)*float64(time.Second)))
	after := snapshot()
	record("traced", t.failures)
	*acked = append(*acked, t.acked...)
	if len(t.reads) == 0 {
		return fmt.Errorf("traced pass of %s completed no retrieval", cfg.w.name)
	}

	t.layerMetrics(vals)
	if looked := after.hits + after.misses - before.hits - before.misses; looked > 0 {
		vals["core.qcache_hit_ratio"] = float64(after.hits-before.hits) / float64(looked)
	}
	if appends := after.walAppends - before.walAppends; appends > 0 {
		vals["wal.bytes_per_write"] = float64(after.walBytes-before.walBytes) / float64(appends)
		vals["wal.fsyncs_per_write"] = float64(after.walFsyncs-before.walFsyncs) / float64(appends)
	}
	stats, err := s.router.Stats()
	if err != nil {
		return fmt.Errorf("router STATS: %w", err)
	}
	vals["cluster.failovers"] = float64(stats["cluster.failovers"])
	vals["cluster.hedges"] = float64(stats["cluster.hedges"])
	// Every per-layer metric is reported on every workload; one that does
	// not apply (a scan on an fs2-only workload, the log on a read-only
	// one) reads 0.
	for _, def := range perLayer {
		d.Metrics[def.Name] = metricValue{Value: vals[def.Name], Unit: def.Unit}
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".jsonl")
	if err := t.writeSpans(path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
