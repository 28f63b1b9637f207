// Package core assembles CLARE: the two-stage filtering pipeline that
// turns a goal into a small set of potential unifiers fetched from disk
// (§2). It glues the substrates together exactly along the paper's
// dataflow:
//
//	secondary file ──FS1 (SCW+MB scan)──▶ clause addresses
//	clause file    ──fetch──▶ PIF records ──FS2 (partial test
//	unification)──▶ satisfiers ──host full unification──▶ clauses
//
// and implements the four CRS search modes (§2.2): software only, FS1
// only, FS2 only, and the full FS1+FS2 configuration.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"clare/internal/clausefile"
	"clare/internal/disk"
	"clare/internal/fault"
	"clare/internal/fs2"
	"clare/internal/mmapfile"
	"clare/internal/pif"
	"clare/internal/ptu"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/telemetry"
	"clare/internal/term"
)

// SearchMode is one of the four CRS retrieval modes (§2.2).
type SearchMode int

const (
	// ModeSoftware: the CRS performs all search operations itself.
	ModeSoftware SearchMode = iota
	// ModeFS1: the superimposed-codeword hardware only.
	ModeFS1
	// ModeFS2: the partial test unification hardware only.
	ModeFS2
	// ModeFS1FS2: the two-stage hardware filter.
	ModeFS1FS2
)

func (m SearchMode) String() string {
	switch m {
	case ModeSoftware:
		return "software"
	case ModeFS1:
		return "fs1"
	case ModeFS2:
		return "fs2"
	case ModeFS1FS2:
		return "fs1+fs2"
	}
	return "mode?"
}

// Engine selects how the retriever executes a retrieval.
type Engine int

const (
	// EngineSim walks the cycle-accurate hardware simulation: the VME
	// register protocol, the Double Buffer, per-operation FS2 cycle
	// accounting. It is the ground truth the paper's numbers come from.
	EngineSim Engine = iota
	// EngineNative runs the same algorithms as tight host code: columnar
	// SCW scans (one AND/compare per entry), allocation-free PIF matching
	// directly on the stored clause heads. Results are bit-identical to
	// EngineSim; a retrieval keeps counts only, and EXPLAIN prices it in
	// simulated time by replaying it on EngineSim (see DESIGN §11).
	EngineNative
)

func (e Engine) String() string {
	switch e {
	case EngineSim:
		return "sim"
	case EngineNative:
		return "native"
	}
	return "engine?"
}

// ParseEngine maps the flag spellings "sim" and "native" to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "sim", "":
		return EngineSim, nil
	case "native":
		return EngineNative, nil
	}
	return EngineSim, fmt.Errorf("core: unknown engine %q (want sim or native)", s)
}

// Config parameterises a retriever.
type Config struct {
	// Disk is the drive model the knowledge base resides on.
	Disk disk.Model
	// SCW are the FS1 codeword parameters.
	SCW scw.Params
	// Microprogram is the FS2 matching program.
	Microprogram fs2.Microprogram
	// SoftwareMatchCost is the host CPU cost of examining one clause in
	// software mode (a nominal full-unification attempt on the paper's
	// M68020-class host). It only shapes mode comparisons; all hardware
	// times are derived from the component models.
	SoftwareMatchCost time.Duration
	// StreamChunkEntries is how many secondary-file entries FS1 hands to
	// the fetch+FS2 stage per pipeline chunk in fs1+fs2 mode (0 derives
	// one disk track's worth — the paper's unit of transfer, §3.2). On the
	// native engine it only shapes the simulated-time ledger of EXPLAIN's
	// sim replay: the index is swept once whatever the chunk size.
	StreamChunkEntries int
	// Metrics, when non-nil, receives per-stage counters and host-time
	// histograms from the retriever and the query cache. Native engine
	// only: the sim engine reports simulated time through Stats, and
	// NewWithSymbols refuses Metrics, Tracer or Flight on it. Nil
	// disables metrics at zero hot-path cost.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one span tree per traced retrieval
	// (RetrieveTraced with a non-nil context): the root plus one span per
	// stage that ran (encode, FS1 scan, disk fetch, FS2 match, host
	// match), each timed in host time. Nil disables tracing.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, is the fault injector: the sim engine's drive,
	// bus and board probe it with key "0", and the retriever itself
	// probes site core.retrieve, keyed by predicate indicator. The native
	// engine probes core.retrieve only, so the drive, bus and board sites
	// are in-process only. NewWithSymbols refuses a rule that would never
	// fire: one naming a drive, bus or board site on the native engine, or
	// keyed to anything but "0" on the sim engine. EXPLAIN's sim replay
	// probes none. Nil —
	// the production configuration — costs one nil check per probe.
	Faults *fault.Injector
	// RetryBackoff is the wait before the first of a faulted retrieval's
	// maxRetries retries, doubling per further attempt (0 means 200µs).
	RetryBackoff time.Duration
	// Engine selects the execution engine: EngineSim (the zero value,
	// the cycle-accurate hardware simulation the paper ledger and the
	// tests build from, and the one EXPLAIN replays a native retrieval
	// on) or EngineNative (the vectorized host fast path with identical
	// results, the one crsd serves). Native mode
	// requires a microprogram the native matcher supports (no
	// DescendFull) and refuses fault rules at the sites only the simulated
	// board unit probes: disk.read, disk.index, vme.bus and fs2.match.
	Engine Engine
	// Flight, when non-nil, receives one compact FlightRecord per
	// retrieval — the always-on black box the /flight dumps and the
	// SIGTERM and panic snapshots are built from. Nil — the default —
	// costs one nil check per retrieval.
	Flight *telemetry.FlightRecorder
}

// MaxScanWorkers sizes the scan worker pool bench/trace.go builds for
// its scw.scan_par_us layer timing. Nothing in this package reads it:
// bench/ is its only caller, and it goes with ROADMAP item 1(c).
const MaxScanWorkers = 32

// Fault handling: a faulted retrieval is retried at most maxRetries
// times before it falls to the host rung.
const (
	maxRetries          = 2
	defaultRetryBackoff = 200 * time.Microsecond
)

// DefaultConfig mirrors the paper's hardware: the faster SMD disk, 64-bit
// codewords with mask bits, level-3 + cross-binding microprogram.
func DefaultConfig() Config {
	return Config{
		Disk:              disk.FujitsuM2351A,
		SCW:               scw.DefaultParams,
		Microprogram:      fs2.MPLevel3XB,
		SoftwareMatchCost: 50 * time.Microsecond,
	}
}

// Indicator names a predicate.
type Indicator struct {
	Functor string
	Arity   int
}

func (pi Indicator) String() string { return fmt.Sprintf("%s/%d", pi.Functor, pi.Arity) }

// Predicate is one disk-resident predicate under CLARE management.
type Predicate struct {
	File *clausefile.PredFile
	// RuleCount counts clauses with a non-true body (rule intensity
	// informs the CRS mode heuristic, §2.2).
	RuleCount int
	// MaskedClauses counts clauses whose index entry masks at least one
	// argument (variable-bearing heads weaken FS1).
	MaskedClauses int
}

// FractionRules reports the predicate's rule intensity.
func (p *Predicate) FractionRules() float64 {
	if p.File.Len() == 0 {
		return 0
	}
	return float64(p.RuleCount) / float64(p.File.Len())
}

// FractionMasked reports how many clauses carry mask bits.
func (p *Predicate) FractionMasked() float64 {
	if p.File.Len() == 0 {
		return 0
	}
	return float64(p.MaskedClauses) / float64(p.File.Len())
}

// Retriever is the CLARE engine instance over the managed predicates.
// Retrieve is safe for concurrent callers. On the sim engine it is the
// paper's one board unit — an FS2 board behind a VME bus, fed by a disk
// drive — and retrievals take turns on it; on the native engine a
// retrieval is a plain reader of the compiled files and owns an arena for
// its duration.
type Retriever struct {
	cfg    Config
	syms   *symtab.Table
	penc   *pif.Encoder
	ienc   *scw.Encoder
	unit   *boardUnit // the simulated hardware; nil on the native engine
	qcache *queryCache
	met    *coreMetrics
	tracer *telemetry.Tracer

	// natPool recycles per-retrieval native-engine arenas (scan buffer,
	// matcher); idle in sim mode.
	natPool sync.Pool

	// store pins the image MapRetriever loaded the predicates from (nil
	// otherwise): they keep views into its bytes.
	store *mmapfile.Mapping

	predsMu sync.RWMutex
	preds   map[Indicator]*Predicate
}

// New builds a retriever with its own symbol table.
func New(cfg Config) (*Retriever, error) {
	return NewWithSymbols(cfg, symtab.New())
}

// NewWithSymbols builds a retriever sharing an existing symbol table
// (e.g. the knowledge base's).
func NewWithSymbols(cfg Config, syms *symtab.Table) (*Retriever, error) {
	ienc, err := scw.NewEncoder(cfg.SCW)
	if err != nil {
		return nil, err
	}
	if err := cfg.Disk.Validate(); err != nil {
		return nil, err
	}
	if cfg.SoftwareMatchCost <= 0 {
		cfg.SoftwareMatchCost = DefaultConfig().SoftwareMatchCost
	}
	if cfg.Metrics != nil {
		cfg.Faults.Instrument(cfg.Metrics)
	}
	r := &Retriever{
		cfg:    cfg,
		syms:   syms,
		penc:   pif.NewEncoder(syms),
		ienc:   ienc,
		qcache: newQueryCache(cfg.Metrics),
		met:    newCoreMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
		preds:  make(map[Indicator]*Predicate),
	}
	// Fail fast on telemetry the sim engine would never feed, and on a
	// fault rule that would be armed and never fire, rather than on the
	// first retrieval: the native engine probes no drive, bus or board,
	// and the sim engine's one unit probes them with key "0".
	if cfg.Engine == EngineSim && (cfg.Metrics != nil || cfg.Tracer != nil || cfg.Flight != nil) {
		return nil, errors.New("core: the sim engine takes no metrics, tracer or flight recorder: it reports simulated time through Stats")
	}
	for _, site := range []string{fault.SiteDiskRead, fault.SiteDiskIndex, fault.SiteBus, fault.SiteFS2} {
		for _, key := range cfg.Faults.Keys(site) {
			switch {
			case cfg.Engine == EngineNative:
				return nil, fmt.Errorf("core: fault site %s needs the in-process sim engine: the native engine has no simulated drive, bus or board to probe it", site)
			case key != "" && key != unitKey:
				return nil, fmt.Errorf("core: fault rule %s@%s never fires: the sim engine's one board unit probes with key %s", site, key, unitKey)
			}
		}
	}
	switch cfg.Engine {
	case EngineSim:
		if r.unit, err = newBoardUnit(cfg); err != nil {
			return nil, err
		}
	case EngineNative:
		// Building the first arena fails on a microprogram the native
		// matcher lacks.
		a, err := r.newArena()
		if err != nil {
			return nil, err
		}
		r.natPool.Put(a)
		// Later arenas cannot fail where the first did not.
		r.natPool.New = func() any { a, _ := r.newArena(); return a }
	default:
		return nil, fmt.Errorf("core: unknown engine %d", cfg.Engine)
	}
	return r, nil
}

// Metrics returns the registry the retriever was configured with (nil
// when telemetry is off).
func (r *Retriever) Metrics() *telemetry.Registry { return r.cfg.Metrics }

// Tracer returns the trace recorder the retriever was configured with
// (nil when tracing is off).
func (r *Retriever) Tracer() *telemetry.Tracer { return r.tracer }

// Symbols returns the shared symbol table.
func (r *Retriever) Symbols() *symtab.Table { return r.syms }

// Engine reports which execution engine the retriever runs.
func (r *Retriever) Engine() Engine { return r.cfg.Engine }

// FS2Stats reports the FS2 board's statistics (zero on the native engine,
// which drives no board). It reads a copy the last attempt took as it
// let go of the unit, so it is race-free and never waits while
// retrievals are in flight; an attempt still running contributes when it
// ends.
func (r *Retriever) FS2Stats() fs2.Stats { return r.unit.stats().fs2 }

// DiskStats reports what finished attempts charged the drive model (zero
// on the native engine, which charges no drive). Like FS2Stats it reads
// the copy taken when an attempt last let go of the unit.
func (r *Retriever) DiskStats() disk.Stats { return r.unit.stats().disk }

// QueryCache reports the query-encoding cache's counters.
func (r *Retriever) QueryCache() QueryCacheStats { return r.qcache.stats() }

// AddClauses compiles clauses into a new predicate file under module — the
// bulk build (a load, kbc). The clauses must all share one functor/arity;
// bodies use term.Atom("true") for facts. Replaces any existing predicate
// of the same indicator; a single write to a live one is Append or Remove.
func (r *Retriever) AddClauses(module string, clauses []ClauseTerm) (*Predicate, error) {
	if len(clauses) == 0 {
		return nil, fmt.Errorf("core: no clauses")
	}
	functor, args, ok := principal(clauses[0].Head)
	if !ok {
		return nil, fmt.Errorf("core: %v is not callable", clauses[0].Head)
	}
	pi := Indicator{Functor: functor, Arity: len(args)}
	b, err := clausefile.NewBuilder(module, pi.Functor, pi.Arity, r.syms, r.cfg.SCW)
	if err != nil {
		return nil, err
	}
	pred := &Predicate{File: b.Build()}
	for _, cl := range clauses {
		c, err := pred.Compile(cl.Head, cl.Body)
		if err != nil {
			return nil, err
		}
		pred.Append(c)
	}
	r.predsMu.Lock()
	r.preds[pi] = pred
	r.predsMu.Unlock()
	return pred, nil
}

// Compile compiles one clause of p (body nil or term.Atom("true") for a
// fact) without storing it. Every reason to refuse a clause — an
// over-size record, too many variables, an integer out of range, a head
// of another predicate — is found here, so a caller that logs between
// Compile and Append never logs a clause it cannot store.
func (p *Predicate) Compile(head, body term.Term) (clausefile.Compiled, error) {
	if body == nil {
		body = term.Atom("true")
	}
	return p.File.Compile(head, body)
}

// Append stores a clause p.Compile produced as p's last, in place: the
// compiled file, its secondary file and the counts. It cannot fail. The
// caller excludes retrievals on p for the duration (the CRS holds the
// predicate's write lock); candidates of earlier retrievals stay valid.
func (p *Predicate) Append(c clausefile.Compiled) {
	p.File.Append(c)
	if c.Rule() {
		p.RuleCount++
	}
	if c.Masked() {
		p.MaskedClauses++
	}
}

// Remove drops p's clause at user position i in place, under the same
// exclusion as Append.
func (p *Predicate) Remove(i int) error {
	if i < 0 || i >= p.File.Len() {
		return fmt.Errorf("core: no clause %d in %s/%d (%d clauses)", i, p.File.Functor, p.File.Arity, p.File.Len())
	}
	_, body, err := p.File.DecodeClause(p.File.All()[i])
	if err != nil {
		return err
	}
	if !term.Equal(body, term.Atom("true")) {
		p.RuleCount--
	}
	if p.File.Index().Entries()[i].Mask != 0 {
		p.MaskedClauses--
	}
	p.File.Remove(i)
	return nil
}

// ClauseTerm pairs a head with an optional body (nil for facts).
type ClauseTerm struct {
	Head term.Term
	Body term.Term
}

// Predicate returns the managed predicate for the goal's indicator.
func (r *Retriever) Predicate(goal term.Term) (*Predicate, error) {
	_, p, err := r.lookup(goal)
	return p, err
}

// lookup resolves the goal's indicator and its managed predicate.
func (r *Retriever) lookup(goal term.Term) (Indicator, *Predicate, error) {
	functor, args, ok := principal(goal)
	if !ok {
		return Indicator{}, nil, fmt.Errorf("core: %v is not callable", goal)
	}
	pi := Indicator{Functor: functor, Arity: len(args)}
	p, ok := r.PredicateByIndicator(pi)
	if !ok {
		return pi, nil, fmt.Errorf("core: unknown predicate %v", pi)
	}
	return pi, p, nil
}

// PredicateByIndicator returns the managed predicate for pi, or false
// when the indicator is unknown.
func (r *Retriever) PredicateByIndicator(pi Indicator) (*Predicate, bool) {
	r.predsMu.RLock()
	p, ok := r.preds[pi]
	r.predsMu.RUnlock()
	return p, ok
}

// Predicates lists the managed indicators, sorted by functor then arity
// so tools and tests see a stable order.
func (r *Retriever) Predicates() []Indicator {
	r.predsMu.RLock()
	defer r.predsMu.RUnlock()
	return sortedIndicators(r.preds)
}

func principal(t term.Term) (string, []term.Term, bool) {
	switch t := term.Deref(t).(type) {
	case term.Atom:
		return string(t), nil, true
	case *term.Compound:
		return t.Functor, t.Args, true
	}
	return "", nil, false
}

// StageStats describes one retrieval's per-stage behaviour.
type StageStats struct {
	// TotalClauses is the predicate's clause count.
	TotalClauses int
	// AfterFS1 is the candidate count surviving the index scan (equals
	// TotalClauses when FS1 is not used).
	AfterFS1 int
	// AfterFS2 is the candidate count surviving partial test unification
	// (equals AfterFS1 when FS2 is not used).
	AfterFS2 int
	// MaskedHits counts FS1 survivors whose index entry carries mask bits
	// (variable-bearing clause heads) — a structural ghost source the
	// EXPLAIN profile attributes separately from hash collisions.
	MaskedHits int
	// FS2RejectsLevel and FS2RejectsXB split FS2's rejections by cause:
	// plain level-3 mismatches versus variable cross-binding consistency
	// failures (the §2.2 shared-variable machinery).
	FS2RejectsLevel int
	FS2RejectsXB    int
	// Overflowed reports Result Memory exhaustion during FS2.
	Overflowed bool

	// Simulated time per stage.
	FS1Scan   time.Duration // secondary file through FS1 (disk-bound)
	DiskFetch time.Duration // clause records from disk
	FS2Match  time.Duration // TUE operation time
	HostMatch time.Duration // software-mode host matching
	// Total is the retrieval's simulated wall time. Streaming stages
	// overlap disk transfer with matching via the Double Buffer, and in
	// fs1+fs2 mode the FS1 scan of one chunk overlaps the fetch+match of
	// the previous chunk, so per step the slower side dominates (the
	// per-chunk max, not the sum).
	Total time.Duration

	// IndexBytes and ClauseBytes are the bytes each stage streamed.
	IndexBytes  int
	ClauseBytes int

	// Chunks is the number of FS1→FS2 pipeline chunks the retrieval
	// streamed (fs1+fs2 mode; 0 when stage streaming was not used).
	Chunks int
	// QueryCacheHit reports that the goal's encodings came from the
	// query-encoding cache.
	QueryCacheHit bool

	// Faults counts the injected hardware faults this retrieval absorbed
	// across all of its attempts.
	Faults int
	// Retries counts the extra attempts made after a faulted one.
	Retries int
	// Degraded names the degradation-ladder rung the retrieval ended on:
	// "" (none — it ran in the requested mode), "fs2" (the FS1 index was
	// unreadable, so the clause file was full-scanned through FS2), or
	// "host" (the retry budget was spent; the host matched the clause
	// file itself). The requested mode stays in Retrieval.Mode.
	Degraded string
}

// Retrieval is the outcome of one CLARE search call and its one record:
// the search modes write Stats (counts, and on the sim engine simulated
// time) and the native engine's stage clock, and everything else said
// about the call — registry observations, the flight record, the span
// tree, all in host time — is derived from those by Retriever.record.
type Retrieval struct {
	Mode SearchMode
	Goal term.Term
	// Predicate is the goal's indicator ("functor/arity"), rendered once
	// per retrieval for every consumer that keys on it.
	Predicate string
	// Candidates are the potential unifiers, in user clause order.
	Candidates []*clausefile.StoredClause
	Stats      StageStats
	pred       *Predicate

	wall  stageClock
	trace *telemetry.Trace
}

// Trace returns the retrieval's span tree (nil unless the retriever was
// configured with a Tracer and the call carried a trace context).
func (rt *Retrieval) Trace() *telemetry.Trace { return rt.trace }

// TraceID reports the retrieval's trace identifier (0 when untraced).
func (rt *Retrieval) TraceID() uint64 {
	if rt.trace == nil {
		return 0
	}
	return rt.trace.TraceID
}

// DecodeCandidates reconstructs the candidate clauses (head, body) as
// terms, for a host that goes on to unify with them.
func (rt *Retrieval) DecodeCandidates() (heads, bodies []term.Term, err error) {
	heads = make([]term.Term, 0, len(rt.Candidates))
	bodies = make([]term.Term, 0, len(rt.Candidates))
	for _, sc := range rt.Candidates {
		h, b, err := rt.pred.File.DecodeClause(sc)
		if err != nil {
			return nil, nil, err
		}
		heads = append(heads, h)
		bodies = append(bodies, b)
	}
	return heads, bodies, nil
}

// AppendCandidateLines appends one line per candidate to dst — prefix,
// the clause in source form ("Head." or "Head :- Body."), '\n' — rendered
// straight from the stored words: the text printing DecodeCandidates'
// terms gives, without the terms. On error dst comes back as it was.
func (rt *Retrieval) AppendCandidateLines(dst []byte, prefix string) ([]byte, error) {
	out := dst
	for _, sc := range rt.Candidates {
		var err error
		if out, err = rt.pred.File.AppendClause(append(out, prefix...), sc); err != nil {
			return dst, err
		}
		out = append(out, '\n')
	}
	return out, nil
}

// Retrieve runs one search call in the given mode. It is safe for
// concurrent callers: on the sim engine each attempt holds the board unit
// (FS2 board, VME bus, disk drive) for its duration, so calls take turns;
// on the native engine calls run in parallel, sharing nothing but the
// compiled files they read. When the retriever carries telemetry (native
// only), the call records per-stage host-time metrics and one flight
// record; a traced call (RetrieveTraced) also files one span tree in the
// tracer's ring buffer.
//
// Under fault injection the call degrades rather than fails. A faulted
// attempt is retried on the same hardware, at most maxRetries times,
// backing off between attempts; an unreadable FS1 index downgrades the
// mode to a full FS2 scan; and once the retry budget is spent the host
// performs the whole match itself. Injected faults therefore never
// surface as errors: Stats.Degraded records the ladder rung the retrieval
// ended on, Stats.Faults/Retries what it cost to get there.
func (r *Retriever) Retrieve(goal term.Term, mode SearchMode) (*Retrieval, error) {
	return r.RetrieveTraced(goal, mode, nil)
}

// RetrieveTraced is Retrieve joining a remote caller's trace: when tc is
// non-nil (and the retriever has a Tracer) the retrieval records a span
// tree carrying the caller's trace ID and parent span, so the CRS server
// can ship the subtree back over the wire for the caller to graft. tc nil
// is plain Retrieve, which records no tree.
func (r *Retriever) RetrieveTraced(goal term.Term, mode SearchMode, tc *telemetry.TraceContext) (*Retrieval, error) {
	start := time.Now()
	pi, pred, err := r.lookup(goal)
	if err != nil {
		r.met.errors.Inc()
		return nil, err
	}
	rt, err := r.ladder(goal, mode, pred, pi.String(), start)
	r.record(rt, start, tc, err)
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// ladder runs one retrieval down the fault ladder — retry, downgrade to a
// full FS2 scan when the index is unreadable, fall to the host once the
// retries are spent — and returns the record of the attempt that ended
// it, together with that attempt's error if it was not an injected fault.
// Each attempt starts a fresh record: a faulted attempt's partial
// candidates and stage times must not leak into the next. start is the
// call's entry time; the first attempt's stage clock starts from it (only
// a map read lies between). The native engine has no hardware to fault:
// only core.retrieve faults its attempts, so it never takes the fs2 rung.
func (r *Retriever) ladder(goal term.Term, mode SearchMode, pred *Predicate, name string, start time.Time) (*Retrieval, error) {
	backoff := r.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	effMode, degraded := mode, ""
	faults, retries := 0, 0
	fresh := func(mark time.Time) *Retrieval {
		rt := &Retrieval{Mode: mode, Goal: goal, Predicate: name, pred: pred}
		rt.Stats.TotalClauses = pred.File.Len()
		rt.wall.mark = mark
		return rt
	}
	seal := func(rt *Retrieval) *Retrieval {
		rt.Stats.AfterFS2 = len(rt.Candidates)
		rt.Stats.Faults, rt.Stats.Retries, rt.Stats.Degraded = faults, retries, degraded
		return rt
	}
	if mode < ModeSoftware || mode > ModeFS1FS2 {
		return seal(fresh(start)), fmt.Errorf("core: unknown mode %d", mode)
	}
	mark := start
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			retries++
			time.Sleep(backoff)
			backoff *= 2
			mark = time.Now()
		}
		// The predicate-targeted whole-retrieval site: chaos schedules
		// fail retrievals by indicator without aiming at one component.
		if err := r.cfg.Faults.Probe(fault.SiteRetrieve, name); err != nil {
			faults++
			continue
		}
		rt := fresh(mark)
		var err error
		if r.unit == nil {
			err = r.searchNative(effMode, goal, pred, rt)
		} else {
			err = r.searchSim(effMode, goal, pred, rt)
		}
		if !fault.Is(err) {
			return seal(rt), err
		}
		faults++
		if fault.SiteOf(err) == fault.SiteDiskIndex && (effMode == ModeFS1 || effMode == ModeFS1FS2) {
			// The secondary file is unreadable: abandon FS1 filtering
			// and full-scan the clause file through FS2 (§2.2 mode (c)).
			effMode, degraded = ModeFS2, "fs2"
		}
	}
	// Last rung: the retry budget is spent. The host matches the raw
	// clause file itself — no hardware, no injection sites, guaranteed to
	// complete. On the sim engine it reads through a drive of its own.
	degraded = "host"
	rt := fresh(time.Now())
	var drive *disk.Drive
	if r.unit != nil {
		drive = disk.NewDrive(r.cfg.Disk)
	}
	err := r.retrieveSoftware(goal, pred, rt, drive)
	return seal(rt), err
}

// Flight reports the flight recorder this retriever records into (nil
// when none is configured).
func (r *Retriever) Flight() *telemetry.FlightRecorder { return r.cfg.Flight }

// encodeQuery produces the goal's SCW query codeword and PIF query image,
// memoised per goal shape in the query cache.
func (r *Retriever) encodeQuery(goal term.Term, rt *Retrieval) (qd scw.QueryDescriptor, q *pif.Encoded, err error) {
	defer rt.wall.lap(stageEncode)
	key, cacheable := queryKey(goal)
	if cacheable {
		if c := r.qcache.get(key); c != nil {
			rt.Stats.QueryCacheHit = true
			return c.scw, c.pif, nil
		}
	}
	qd, err = r.ienc.EncodeQuery(goal)
	if err != nil {
		return scw.QueryDescriptor{}, nil, err
	}
	q, err = r.penc.Encode(goal, pif.QuerySide)
	if err != nil {
		return scw.QueryDescriptor{}, nil, err
	}
	if cacheable {
		r.qcache.put(key, &cachedQuery{pif: q, scw: qd})
	}
	return qd, q, nil
}

// retrieveSoftware scans the whole clause file and matches in software —
// mode (a): "the CRS performs all the search operations itself". The
// software matcher runs the same level-3+XB algorithm (package ptu).
//
// drive is the spindle the clause file streams from: the board unit's on
// the sim engine's filter path. The sim engine's host-only rung passes a
// drive of its own — the host reads the clause file through its own block
// I/O, costed by the drive model outside the unit's accounting — which
// nothing has armed with faults, so that path always completes. The
// native engine passes nil and charges nothing: the retrieval keeps
// counts, and EXPLAIN prices them.
func (r *Retriever) retrieveSoftware(goal term.Term, pred *Predicate, rt *Retrieval, drive *disk.Drive) error {
	all := pred.File.All()
	rt.Stats.AfterFS1 = len(all)
	rt.Stats.ClauseBytes = pred.File.SizeBytes()
	if drive != nil {
		diskTime, err := drive.Scan(pred.File.SizeBytes())
		if err != nil {
			return err
		}
		rt.Stats.DiskFetch = diskTime
	}
	cfg := ptuConfigFor(r.cfg.Microprogram)
	for _, sc := range all {
		head, _, err := pred.File.DecodeClause(sc)
		if err != nil {
			return err
		}
		if ptu.Match(goal, head, cfg) {
			rt.Candidates = append(rt.Candidates, sc)
		}
	}
	rt.wall.lap(stageHostMatch)
	if drive != nil {
		rt.Stats.HostMatch = time.Duration(len(all)) * r.cfg.SoftwareMatchCost
		rt.Stats.Total = rt.Stats.DiskFetch + rt.Stats.HostMatch
	}
	return nil
}

// streamChunks resolves the fs1+fs2 pipeline's chunking of an n-entry
// index: entries per chunk and how many chunks that makes.
func (c *Config) streamChunks(n int) (chunk, count int) {
	chunk = c.StreamChunkEntries
	if chunk <= 0 {
		// One disk track per chunk — the paper's worst-case unit of a
		// single FS2 search call (§3.2).
		chunk = c.Disk.TrackBytes / scw.EntrySize
		if chunk < 1 {
			chunk = 1
		}
	}
	return chunk, (n + chunk - 1) / chunk
}

// pipelineTime models the double-buffered stream: transfer of clause i
// overlaps the matching of clause i-1.
func pipelineTime(access time.Duration, xfers, matches []time.Duration) time.Duration {
	if len(xfers) == 0 {
		return access
	}
	total := access + xfers[0]
	for i := 1; i < len(xfers); i++ {
		step := xfers[i]
		if i-1 < len(matches) && matches[i-1] > step {
			step = matches[i-1]
		}
		total += step
	}
	if n := len(matches); n > 0 {
		total += matches[n-1]
	}
	return total
}

// ptuConfigFor maps an FS2 microprogram to the equivalent software
// reference configuration.
func ptuConfigFor(mp fs2.Microprogram) ptu.Config {
	level := ptu.Level1
	if mp.CompareContent {
		level = ptu.Level2
	}
	if mp.DescendElements {
		level = ptu.Level3
	}
	return ptu.Config{Level: level, CrossBinding: mp.CrossBinding}
}
