package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"clare/internal/clausefile"
	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/fs2"
	"clare/internal/parse"
	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/term"
	"clare/internal/wal"
)

// The traced pass times calls into each layer's public functions from
// out here; nothing inside the program is instrumented. Per operation it
// calls successively narrower entry points with the same goal (or, where
// a warm cache entry would flatter the narrower call, a sibling goal of
// equal cost):
//
//	L0  crs.Client → cluster.Server front-end (what users hit)
//	L1  cluster.Router.Retrieve / Write, in process
//	L2  crs.Client straight to the owning backend
//	L3  parse.Term + crs.Session + Retrieval.DecodeCandidates + rendering
//	L4  core.Retriever.Retrieve
//	L5  scw / pif encoders, columnar scan, native matcher, wal.Log.Append
//	    and Retriever.AddClauses on instances the benchmark owns
//
// A layer's self time is a level minus the level inside it, taken per
// operation and reported as the median of those differences.

// span is one timed call. Start and End count from the start of the
// traced pass; Parent names the level that encloses this one.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   string `json:"parent"`
}

// Span names of the levels that enclose others; a span's Parent is one of
// these (or empty for L0).
const (
	spanL0      = "L0 client->front-end"
	spanL1      = "L1 Router.Retrieve"
	spanL2      = "L2 client->backend"
	spanSession = "L3 Session.RetrieveTraced"
	spanL4      = "L4 Retriever.Retrieve"
	spanL0W     = "L0 client->front-end WRITE"
	spanL1W     = "L1 Router.Write"
	spanL2W     = "L2 client->backend WRITE"
	spanWrite   = "L3 Session write"
)

// traceSpanCap bounds the spans kept for the JSONL file (metrics use
// every operation regardless): about 15 MB of output.
const traceSpanCap = 120000

// levels is how many goals one traced retrieval needs: L0..L5.
const levels = 6

// tracedSerial is where the traced pass's writer starts numbering its
// fresh facts, clear of any the untraced segment asserted before it.
const tracedSerial = 10000000

// readTimes is one traced retrieval, in µs unless named otherwise.
type readTimes struct {
	l0, l1, l2                    float64
	parse, session, decode, rendr float64
	l4, bare                      float64
	encode, scan, serial, par     float64
	match                         float64
	entries, survivors            int // FS1: entries swept, survivors
	matched, candidates           int // FS2: clauses examined, satisfiers
	replyBytes                    int
	scanned                       bool
	miss                          bool // L4 encoded the query (cache miss)
}

// writeTimes is one traced write family, in µs: what the per-layer
// metrics use (the other levels are in the span file).
type writeTimes struct {
	l0                   float64
	append, appendNoSync float64
	addClauses           float64
	rebuilt              int // clauses the rebuild compiled
}

// tracer owns everything the traced pass calls besides the stack itself.
type tracer struct {
	s        *stack
	w        *workload
	t0       time.Time
	op       int
	spans    []span
	reads    []readTimes
	writes   []writeTimes
	acked    []op
	failures gate

	direct [shardCount]*crs.Client  // L2: straight to each backend
	sess   [shardCount]*crs.Session // L3
	bare   [shardCount]*core.Retriever
	ienc   *scw.Encoder
	pool   *scw.ScanPool
	pbuf   scw.ParScanBuf
	sbuf   scw.ScanBuf
	nm     *fs2.NativeMatcher
	render bytes.Buffer
	// examine is the reusable list of clauses FS2 looks at.
	examine []*clausefile.StoredClause

	walSync, walNoSync *wal.Log
	scratch            *core.Retriever // AddClauses target
	chunk              int
}

func newTracer(s *stack, w *workload) (*tracer, error) {
	t := &tracer{s: s, w: w, pool: scw.NewScanPool(core.MaxScanWorkers - 1)}
	cfg := core.DefaultConfig()
	var err error
	if t.ienc, err = scw.NewEncoder(cfg.SCW); err != nil {
		return nil, err
	}
	if t.nm, err = fs2.NewNativeMatcher(cfg.Microprogram); err != nil {
		return nil, err
	}
	// The fs1+fs2 path sweeps the index one disk track at a time.
	if t.chunk = cfg.Disk.TrackBytes / scw.EntrySize; t.chunk < 1 {
		t.chunk = 1
	}
	bareCfg := cfg
	bareCfg.Engine = core.EngineNative
	for i, b := range s.backends {
		if t.direct[i], err = crs.Dial(b.lis.Addr().String()); err != nil {
			return nil, err
		}
		t.sess[i] = b.srv.OpenSession()
		// The same store with no registry, tracer or flight ring: what a
		// retrieval costs with the always-on telemetry taken away.
		if t.bare[i], _, err = core.MapRetriever(bareCfg, b.path); err != nil {
			return nil, err
		}
	}
	if w.writer {
		if t.walSync, err = wal.Open(filepath.Join(s.dir, "wal-bench-sync"), wal.Options{Fsync: wal.FsyncPolicy{Always: true}}); err != nil {
			return nil, err
		}
		if t.walNoSync, err = wal.Open(filepath.Join(s.dir, "wal-bench-nosync"), wal.Options{}); err != nil {
			return nil, err
		}
		if t.scratch, err = core.New(bareCfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *tracer) close() {
	for i := range t.direct {
		if t.direct[i] != nil {
			t.direct[i].Close()
		}
		if t.sess[i] != nil {
			t.sess[i].Close()
		}
		if t.bare[i] != nil {
			t.bare[i].CloseStore()
		}
	}
	if t.walSync != nil {
		t.walSync.Close()
	}
	if t.walNoSync != nil {
		t.walNoSync.Close()
	}
}

// timed runs f as one span and returns its duration in µs.
func (t *tracer) timed(layer, name, parent string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	if len(t.spans) < traceSpanCap {
		t.spans = append(t.spans, span{
			Workload: t.w.name, Op: t.op, Layer: layer, Name: name, Parent: parent,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	}
	return float64(end.Sub(start)) / 1e3
}

func (t *tracer) fail(what string, err error) {
	t.failures.fail(fmt.Errorf("traced %s: %w", what, err))
}

// predOf finds the predicate a goal or clause text is about.
func (t *tracer) predOf(text string) *predicate {
	name, _, _ := strings.Cut(text, "(")
	return t.s.kb.pred(name)
}

// read traces one retrieval family: goals[i] is sent at level i.
func (t *tracer) read(goals []op) {
	t.op++
	t.failures.attempted++
	mode := goals[0].mode
	p := t.predOf(goals[0].text)
	shard := t.s.shardOf(p)
	b := t.s.backends[shard]
	modeP, err := crs.ParseMode(mode)
	if err != nil {
		t.fail(mode, err)
		return
	}
	var rd readTimes
	check := func(res *crs.RetrieveResult, err error, at string) bool {
		if err == nil {
			err = checkFunnel(res)
		}
		if err != nil {
			t.fail(at+" "+goals[0].text, err)
		}
		return err == nil
	}

	var res *crs.RetrieveResult
	rd.l0 = t.timed("cluster", spanL0, "", func() { res, err = t.s.clients[0].Retrieve(mode, goals[0].text) })
	if !check(res, err, "L0") {
		return
	}
	rd.l1 = t.timed("cluster", spanL1, spanL0, func() { res, err = t.s.router.Retrieve(mode, goals[1].text) })
	if !check(res, err, "L1") {
		return
	}
	rd.l2 = t.timed("crs", spanL2, spanL1, func() { res, err = t.direct[shard].Retrieve(mode, goals[2].text) })
	if !check(res, err, "L2") {
		return
	}
	rd.candidates = len(res.Clauses)
	rd.replyBytes = len("CANDIDATES \n") + len(fmt.Sprint(len(res.Clauses))) + len(res.Stats) + 1
	for _, cl := range res.Clauses {
		rd.replyBytes += len("C ") + len(cl) + 1
	}

	// L3: what the backend's wire handler does between reading the line
	// and writing the reply.
	var goal term.Term
	rd.parse = t.timed("parse", "L3 parse.Term", spanL2, func() { goal, err = parse.Term(goals[3].text) })
	if err != nil {
		t.fail("L3 parse", err)
		return
	}
	var rt *core.Retrieval
	rd.session = t.timed("crs", spanSession, spanL2, func() { rt, err = t.sess[shard].RetrieveTraced(goal, modeP, nil) })
	if err != nil {
		t.fail("L3 session", err)
		return
	}
	var heads, bodies []term.Term
	rd.decode = t.timed("core", "L3 Retrieval.DecodeCandidates", spanL2, func() { heads, bodies, err = rt.DecodeCandidates() })
	if err != nil {
		t.fail("L3 decode", err)
		return
	}
	rd.rendr = t.timed("term", "L3 render clause lines", spanL2, func() {
		t.render.Reset()
		for i := range heads {
			t.render.WriteString("C ")
			t.render.WriteString(renderClause(heads[i], bodies[i]))
			t.render.WriteByte('\n')
		}
	})

	// L4: the retriever alone, armed as the daemon arms it, then bare.
	if goal, err = parse.Term(goals[4].text); err != nil {
		t.fail("L4 parse", err)
		return
	}
	rd.l4 = t.timed("core", spanL4, spanSession, func() { rt, err = b.retr.Retrieve(goal, *modeP) })
	if err != nil {
		t.fail("L4", err)
		return
	}
	rd.miss = !rt.Stats.QueryCacheHit
	rd.bare = t.timed("core", "L4 Retriever.Retrieve (no telemetry)", spanSession, func() { _, err = t.bare[shard].Retrieve(goal, *modeP) })
	if err != nil {
		t.fail("L4 bare", err)
		return
	}

	// L5: the kernels, on the backend's own clause file.
	if goal, err = parse.Term(goals[5].text); err != nil {
		t.fail("L5 parse", err)
		return
	}
	pred, ok := b.retr.PredicateByIndicator(core.Indicator{Functor: p.name, Arity: p.arity})
	if !ok {
		t.fail("L5", fmt.Errorf("%s is not on shard %d", p.name, shard))
		return
	}
	var qd scw.QueryDescriptor
	var q *pif.Encoded
	penc := pif.NewEncoder(b.retr.Symbols())
	rd.encode = t.timed("scw", "L5 Encoder.EncodeQuery", spanL4, func() { qd, err = t.ienc.EncodeQuery(goal) })
	if err != nil {
		t.fail("L5 scw encode", err)
		return
	}
	rd.encode += t.timed("pif", "L5 Encoder.Encode", spanL4, func() { q, err = penc.Encode(goal, pif.QuerySide) })
	if err != nil {
		t.fail("L5 pif encode", err)
		return
	}
	all := pred.File.All()
	t.examine = t.examine[:0]
	if *modeP == core.ModeFS1FS2 {
		rd.scanned = true
		col := pred.File.Index().Columnar()
		n := pred.File.Index().Len()
		rd.entries = n
		// As mode fs1+fs2 sweeps: one track-sized chunk at a time.
		rd.scan = t.timed("scw", "L5 Columnar.ParScanRangeInto per track", spanL4, func() {
			for lo := 0; lo < n; lo += t.chunk {
				col.ParScanRangeInto(qd, lo, lo+t.chunk, runtime.GOMAXPROCS(0), t.pool, &t.pbuf)
				for _, pos := range t.pbuf.Out.Pos {
					t.examine = append(t.examine, all[pos])
				}
			}
		})
		rd.serial = t.timed("scw", "L5 Columnar.ScanInto", spanL4, func() { col.ScanInto(qd, &t.sbuf) })
		rd.par = t.timed("scw", "L5 Columnar.ParScanInto", spanL4, func() {
			col.ParScanInto(qd, runtime.GOMAXPROCS(0), t.pool, &t.pbuf)
		})
		rd.survivors = len(t.examine)
	} else {
		t.examine = append(t.examine, all...)
	}
	rd.matched = len(t.examine)
	passed := 0
	rd.match = t.timed("fs2", "L5 NativeMatcher.SetQuery+Match", spanL4, func() {
		if err = t.nm.SetQuery(q); err != nil {
			return
		}
		for _, sc := range t.examine {
			if t.nm.Match(sc.Head) {
				passed++
			}
		}
	})
	if err != nil {
		t.fail("L5 match", err)
		return
	}
	if passed != rd.candidates {
		t.fail("L5", fmt.Errorf("matcher passed %d clauses of %s, the wire sent %d", passed, goals[5].text, rd.candidates))
		return
	}
	t.reads = append(t.reads, rd)
}

// write traces one write family on predicate p: four fresh facts
// asserted, one per level L0..L3, or (retract) the same four removed.
// L5 appends the same record to the benchmark's own logs and rebuilds
// p's clause list in the benchmark's own retriever.
func (t *tracer) write(p *predicate, kind opKind, clauses []string) {
	t.op++
	t.failures.attempted++
	shard := t.s.shardOf(p)
	opWord := map[opKind]string{opAssert: "assert", opRetract: "retract"}[kind]
	var wt writeTimes
	var err error
	// step times one level's write of clauses[i]; an acknowledged write
	// joins the record the durability model replays.
	step := func(i int, layer, name, parent string, f func()) (float64, bool) {
		dur := t.timed(layer, name, parent, f)
		if err != nil {
			t.fail(name+" "+clauses[i], err)
			return dur, false
		}
		t.acked = append(t.acked, op{kind: kind, text: clauses[i]})
		return dur, true
	}
	var ok bool
	if wt.l0, ok = step(0, "cluster", spanL0W, "", func() {
		_, err = send(t.s.clients[0], op{kind: kind, text: clauses[0]})
	}); !ok {
		return
	}
	if _, ok = step(1, "cluster", spanL1W, spanL0W, func() { _, err = t.s.router.Write(opWord, clauses[1]) }); !ok {
		return
	}
	if _, ok = step(2, "crs", spanL2W, spanL1W, func() {
		_, err = send(t.direct[shard], op{kind: kind, text: clauses[2]})
	}); !ok {
		return
	}
	var cl term.Term
	t.timed("parse", "L3 parse.Term", spanL2W, func() { cl, err = parse.Term(clauses[3]) })
	if err != nil {
		t.fail("L3 parse", err)
		return
	}
	if _, ok = step(3, "crs", spanWrite, spanL2W, func() {
		if kind == opAssert {
			_, err = t.sess[shard].AssertNow(cl, term.Atom("true"))
		} else {
			_, err = t.sess[shard].RetractNow(cl, term.Atom("true"))
		}
	}); !ok {
		return
	}
	walOp := map[opKind]wal.Op{opAssert: wal.OpAssert, opRetract: wal.OpRetract}[kind]
	wt.append = t.timed("wal", "L5 Log.Append fsync=always", spanWrite, func() { _, err = t.walSync.Append(walOp, p.name, clauses[3]) })
	if err == nil {
		wt.appendNoSync = t.timed("wal", "L5 Log.Append fsync=never", spanWrite, func() { _, err = t.walNoSync.Append(walOp, p.name, clauses[3]) })
	}
	if err != nil {
		t.fail("L5 wal", err)
		return
	}
	rebuilt := append(append([]core.ClauseTerm(nil), p.clauses...), core.ClauseTerm{Head: cl})
	wt.rebuilt = len(rebuilt)
	wt.addClauses = t.timed("core", "L5 Retriever.AddClauses", spanWrite, func() { _, err = t.scratch.AddClauses(p.name, rebuilt) })
	if err != nil {
		t.fail("L5 AddClauses", err)
		return
	}
	t.writes = append(t.writes, wt)
}

// run traces w's operations until the time is up. A workload with a
// writer alternates a read family with a write family (assert, then the
// matching retract), walking the hot predicates in turn.
func (t *tracer) run(seed int64, d time.Duration) {
	set := rand.New(rand.NewSource(seed*1000 + 500))
	pick := rand.New(rand.NewSource(seed*1000 + 800))
	var family func(n int) []op
	if t.w.siblings != nil {
		family = t.w.siblings(t.s.kb, pick)
	} else {
		next := t.w.reads(t.s.kb, set, pick)
		family = func(n int) []op {
			out := make([]op, n)
			o := next()
			for i := range out {
				out[i] = o
			}
			return out
		}
	}
	var wr *writer
	if t.w.writer {
		wr = newWriter(t.s.kb, pick)
		wr.serial = tracedSerial
	}
	t.t0 = time.Now()
	deadline := t.t0.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t.read(family(levels))
		if wr == nil {
			continue
		}
		p := wr.preds[i%len(wr.preds)]
		fresh := make([]string, 4)
		for j := range fresh {
			fresh[j] = wr.fresh(p)
		}
		t.write(p, opAssert, fresh)
		t.read(family(levels))
		t.write(p, opRetract, fresh)
	}
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// col gathers one field of every traced retrieval.
func (t *tracer) col(f func(*readTimes) float64) []float64 {
	out := make([]float64, len(t.reads))
	for i := range t.reads {
		out[i] = f(&t.reads[i])
	}
	return out
}

func (t *tracer) wcol(f func(*writeTimes) float64) []float64 {
	out := make([]float64, len(t.writes))
	for i := range t.writes {
		out[i] = f(&t.writes[i])
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// layerMetrics turns the traced operations into the per-layer metrics:
// times are medians of per-operation values (differences are taken per
// operation first), counts are means.
func (t *tracer) layerMetrics(m map[string]float64) {
	med := func(f func(*readTimes) float64) float64 { return median(t.col(f)) }
	avg := func(f func(*readTimes) float64) float64 { return mean(t.col(f)) }
	m["loadgen.traced_l0_p50_us"] = med(func(r *readTimes) float64 { return r.l0 })
	m["cluster.frontend_us"] = med(func(r *readTimes) float64 { return r.l0 - r.l1 })
	m["cluster.route_us"] = med(func(r *readTimes) float64 { return r.l1 - r.l2 })
	m["crs.wire_us"] = med(func(r *readTimes) float64 { return r.l2 - (r.parse + r.session + r.decode + r.rendr) })
	m["crs.session_us"] = med(func(r *readTimes) float64 { return r.session - r.l4 })
	m["crs.reply_bytes"] = avg(func(r *readTimes) float64 { return float64(r.replyBytes) })
	m["crs.candidates_per_reply"] = avg(func(r *readTimes) float64 { return float64(r.candidates) })
	m["parse.term_us"] = med(func(r *readTimes) float64 { return r.parse })
	m["term.render_us"] = med(func(r *readTimes) float64 { return r.rendr })
	m["core.decode_us"] = med(func(r *readTimes) float64 { return r.decode })
	m["core.retrieve_us"] = med(func(r *readTimes) float64 { return r.l4 })
	m["core.retrieve_bare_us"] = med(func(r *readTimes) float64 { return r.bare })
	m["core.encode_us"] = med(func(r *readTimes) float64 { return r.encode })
	m["core.orchestrate_us"] = med(func(r *readTimes) float64 {
		inside := r.scan + r.match
		if r.miss {
			inside += r.encode
		}
		return r.l4 - inside
	})
	m["scw.scan_us"] = med(func(r *readTimes) float64 { return r.scan })
	m["scw.scan_serial_us"] = med(func(r *readTimes) float64 { return r.serial })
	m["scw.scan_par_us"] = med(func(r *readTimes) float64 { return r.par })
	m["scw.entries_scanned"] = avg(func(r *readTimes) float64 { return float64(r.entries) })
	m["fs2.match_us"] = med(func(r *readTimes) float64 { return r.match })
	m["fs2.clauses_matched"] = avg(func(r *readTimes) float64 { return float64(r.matched) })
	m["fs2.survivors"] = avg(func(r *readTimes) float64 { return float64(r.candidates) })
	var entries, scanNs, survivors, drops, matched, matchNs float64
	for i := range t.reads {
		r := &t.reads[i]
		matched += float64(r.matched)
		matchNs += r.match * 1e3
		if r.scanned {
			entries += float64(r.entries)
			scanNs += r.scan * 1e3
			survivors += float64(r.survivors)
			drops += float64(r.survivors - r.candidates)
		}
	}
	if n := float64(len(t.reads)); n > 0 {
		m["scw.survivors"] = survivors / n
	}
	if entries > 0 {
		m["scw.scan_ns_per_entry"] = scanNs / entries
	}
	if survivors > 0 {
		// FS1 survivors that FS2 then rejects: the codeword's false drops.
		m["scw.false_drop_ratio"] = drops / survivors
	}
	if matched > 0 {
		m["fs2.match_ns_per_clause"] = matchNs / matched
	}

	wmed := func(f func(*writeTimes) float64) float64 { return median(t.wcol(f)) }
	m["loadgen.traced_l0_write_p50_us"] = wmed(func(w *writeTimes) float64 { return w.l0 })
	m["wal.append_us"] = wmed(func(w *writeTimes) float64 { return w.append })
	m["wal.append_nosync_us"] = wmed(func(w *writeTimes) float64 { return w.appendNoSync })
	m["core.addclauses_us"] = wmed(func(w *writeTimes) float64 { return w.addClauses })
	m["core.addclauses_clauses_per_write"] = mean(t.wcol(func(w *writeTimes) float64 { return float64(w.rebuilt) }))
}
