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
	// directly on the stored clause heads, batched exact-size fetch
	// accounting. Results are bit-identical to EngineSim — only wall-clock
	// speed and the FS2Match simulated-time ledger differ (see DESIGN §11).
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
	// Boards is the number of FS2 board + bus + drive units in the
	// simulated chassis (0 means 1 — the paper's configuration). Each sim
	// retrieval leases one unit, so up to Boards retrievals proceed in
	// parallel. The native engine builds no chassis — its retrievals run
	// in parallel unleased — and refuses Boards > 1.
	Boards int
	// StreamChunkEntries is how many secondary-file entries FS1 hands to
	// the fetch+FS2 stage per pipeline chunk in fs1+fs2 mode (0 derives
	// one disk track's worth — the paper's unit of transfer, §3.2). On the
	// native engine it only shapes the simulated-time ledger: the index is
	// swept once whatever the chunk size.
	StreamChunkEntries int
	// QueryCacheSize bounds the query-encoding cache (distinct goal
	// shapes). 0 means DefaultQueryCacheSize; negative disables caching.
	QueryCacheSize int
	// Metrics, when non-nil, receives per-stage counters and histograms
	// (both wall-clock and simulated time) from the retriever, its board
	// pool, the disk drives, the FS2 boards, the VME buses, and the query
	// cache. Nil disables metrics at zero hot-path cost.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one span tree per retrieval: the root
	// plus one span per stage that ran (board lease, encode, FS1 scan,
	// disk fetch, FS2 match, host match). Nil disables tracing.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, is the fault injector armed across the
	// chassis: every drive, bus, and board probes it, as does the
	// retriever itself (site core.retrieve, keyed by predicate
	// indicator). The native engine probes the drive sites only, keyed
	// "0". Nil — the production configuration — costs one nil check per
	// probe.
	Faults *fault.Injector
	// TripThreshold is how many consecutive faulted leases trip a board
	// unit out of rotation (0 means 3; sim engine only, like ProbePeriod).
	TripThreshold int
	// ProbePeriod is how long a tripped unit cools off before a
	// probationary re-admission (0 means 100ms).
	ProbePeriod time.Duration
	// MaxRetries bounds the extra attempts a retrieval makes after an
	// injected fault before degrading to host-only matching (0 means 2,
	// negative means no retries).
	MaxRetries int
	// RetryBackoff is the wait before the first retry, doubling per
	// further attempt (0 means 200µs).
	RetryBackoff time.Duration
	// Engine selects the execution engine: EngineSim (the zero value,
	// the cycle-accurate hardware simulation the paper ledger and the
	// tests build from) or EngineNative (the vectorized host fast path
	// with identical results, what crsd serves by default). Native mode
	// requires a microprogram the native matcher supports (no
	// DescendFull) and refuses Boards > 1, which sizes the simulated
	// chassis.
	Engine Engine
	// Flight, when non-nil, receives one compact FlightRecord per
	// retrieval — the always-on black box the /flight dumps and
	// crash/SLO-breach snapshots are built from. Nil — the default —
	// costs one nil check per retrieval.
	Flight *telemetry.FlightRecorder
}

// MaxScanWorkers sizes the scan worker pool bench/trace.go builds for
// its scw.scan_par_us layer timing. Nothing in this package reads it:
// bench/ is its only caller, and it goes with ROADMAP item 1(c).
const MaxScanWorkers = 32

// Fault-handling defaults.
const (
	defaultTripThreshold = 3
	defaultProbePeriod   = 100 * time.Millisecond
	defaultMaxRetries    = 2
	defaultRetryBackoff  = 200 * time.Microsecond
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
// Retrieve is safe for concurrent callers. On the sim engine it is a
// chassis of FS2 boards behind VME buses (one or more — the paper built
// one), each with its own disk spindle, and each retrieval leases a
// board unit from the pool; on the native engine a retrieval is a plain
// reader of the compiled files and owns an arena for its duration.
type Retriever struct {
	cfg    Config
	syms   *symtab.Table
	penc   *pif.Encoder
	ienc   *scw.Encoder
	pool   *boardPool // the simulated chassis; nil on the native engine
	qcache *queryCache
	met    *coreMetrics
	tracer *telemetry.Tracer

	// disk is what finished attempts charged the drive model: each
	// accounts on a drive it owns — the leased unit's, the arena's — and
	// folds its statistics in here when it ends.
	disk disk.Totals

	// natPool recycles per-retrieval native-engine arenas (scan buffer,
	// matcher, drive ledger); idle in sim mode.
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
	qcache := newQueryCache(cfg.QueryCacheSize)
	qcache.instrument(cfg.Metrics)
	if cfg.Metrics != nil {
		cfg.Faults.Instrument(cfg.Metrics)
	}
	r := &Retriever{
		cfg:    cfg,
		syms:   syms,
		penc:   pif.NewEncoder(syms),
		ienc:   ienc,
		qcache: qcache,
		met:    newCoreMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
		preds:  make(map[Indicator]*Predicate),
	}
	switch cfg.Engine {
	case EngineSim:
		if r.pool, err = newBoardPool(cfg, cfg.Boards); err != nil {
			return nil, err
		}
	case EngineNative:
		// Fail fast on what the native engine cannot run, rather than on
		// the first retrieval: a simulated chassis of more than one board,
		// and — building the first arena — a microprogram its matcher
		// lacks.
		if cfg.Boards > 1 {
			return nil, fmt.Errorf("core: %d boards need the sim engine: the native engine builds no chassis and serves retrievals in parallel without one", cfg.Boards)
		}
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

// FS2Stats aggregates FS2 statistics across every board in the chassis
// (zero on the native engine, which drives no board). The snapshot is
// taken under the pool lock from per-slot copies captured at board
// release, so it is race-free while retrievals are in flight; a retrieval
// still holding a board contributes its work when it releases.
func (r *Retriever) FS2Stats() fs2.Stats { return r.pool.fs2Snapshot() }

// DiskStats reports what finished retrievals charged the drive model, on
// every spindle of the chassis or, on the native engine, on their own
// ledgers. Like FS2Stats it is race-free while retrievals are in flight; an
// attempt still running contributes when it ends.
func (r *Retriever) DiskStats() disk.Stats { return r.disk.Stats() }

// Health reports the chassis's board-health snapshot: counts of free,
// leased, and tripped units plus per-slot state (the same state the
// clare_board* metrics publish). The native engine has no boards to
// lease or trip and reports the zero Health.
func (r *Retriever) Health() Health { return r.pool.health() }

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
	// "host" (no healthy board, or the retry budget was spent; the host
	// matched the clause file itself). The requested mode stays in
	// Retrieval.Mode.
	Degraded string
}

// Retrieval is the outcome of one CLARE search call and its one record:
// the search modes write Stats (simulated time, counts) and the stage
// clock, and everything else said about the call — registry
// observations, the flight record, the span tree — is derived from those
// by Retriever.record.
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
	slot  int // board unit the final attempt leased; -1 when it leased none (native engine, host rung)
	trace *telemetry.Trace
}

// Trace returns the retrieval's span tree (nil unless the retriever was
// configured with a Tracer).
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
// concurrent callers: on the sim engine each call leases one board unit
// (FS2 board, VME bus, disk drive) from the chassis pool for its
// duration; on the native engine calls run in parallel, sharing nothing
// but the compiled files they read. When the retriever carries telemetry,
// the call records per-stage metrics in both clocks and one span tree
// into the tracer's ring buffer.
//
// Under fault injection the call degrades rather than fails. A faulted
// attempt is retried (on different hardware, where there is any; bounded
// by Config.MaxRetries, backing off between attempts); an unreadable FS1
// index downgrades the mode to a full FS2 scan; and when every board is
// tripped — or the retry budget is spent — the host performs the whole
// match itself. Injected
// faults therefore never surface as errors: Stats.Degraded records the
// ladder rung the retrieval ended on, Stats.Faults/Retries what it cost
// to get there.
func (r *Retriever) Retrieve(goal term.Term, mode SearchMode) (*Retrieval, error) {
	return r.RetrieveTraced(goal, mode, nil)
}

// RetrieveTraced is Retrieve joining a remote caller's trace: when tc is
// non-nil the retrieval's span tree records the caller's trace ID and
// parent span, so the CRS server can ship the subtree back over the wire
// for the caller to graft. tc nil is plain Retrieve.
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

// ladder runs one retrieval down the fault ladder — retry on other
// hardware, downgrade to a full FS2 scan when the index is unreadable,
// fall to the host when no board is left — and returns the record of the
// attempt that ended it, together with that attempt's error if it was
// not an injected fault. Each attempt starts a fresh record: a faulted
// attempt's partial candidates and stage times must not leak into the
// next. start is the call's entry time; the first attempt's lease wait
// is measured from it (only a map read lies between). The native engine
// has no hardware to lease, retry on or trip: its attempts differ only in
// what the drive fault sites answer.
func (r *Retriever) ladder(goal term.Term, mode SearchMode, pred *Predicate, name string, start time.Time) (*Retrieval, error) {
	backoff := r.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	maxRetries := r.cfg.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = defaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	effMode, degraded := mode, ""
	faults, retries := 0, 0
	fresh := func(mark time.Time) *Retrieval {
		rt := &Retrieval{Mode: mode, Goal: goal, Predicate: name, pred: pred, slot: -1}
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
		if r.pool == nil {
			err = r.searchNative(effMode, goal, pred, rt)
		} else if err = r.searchSim(effMode, goal, pred, rt); err == errNoBoard {
			// Every unit is tripped and cooling off: drop to the
			// ladder's last rung.
			break
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
	// Last rung: no healthy board, or the retry budget is spent. The host
	// matches the raw clause file itself — no hardware, no injection
	// sites, guaranteed to complete.
	degraded = "host"
	rt := fresh(time.Now())
	err := r.retrieveSoftware(goal, pred, rt, disk.NewDrive(r.cfg.Disk))
	return seal(rt), err
}

// Flight reports the flight recorder this retriever records into (nil
// when none is configured).
func (r *Retriever) Flight() *telemetry.FlightRecorder { return r.cfg.Flight }

// encodeQuery produces the goal's SCW query codeword and PIF query image,
// memoised per goal shape in the query cache.
func (r *Retriever) encodeQuery(goal term.Term, rt *Retrieval) (qd scw.QueryDescriptor, q *pif.Encoded, err error) {
	defer rt.wall.lap(stageEncode)
	var key string
	if r.qcache != nil {
		var cacheable bool
		if key, cacheable = queryKey(goal); cacheable {
			if c := r.qcache.get(key); c != nil {
				rt.Stats.QueryCacheHit = true
				return c.scw, c.pif, nil
			}
		} else {
			key = ""
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
	if key != "" {
		r.qcache.put(key, &cachedQuery{pif: q, scw: qd})
	}
	return qd, q, nil
}

// retrieveSoftware scans the whole clause file and matches in software —
// mode (a): "the CRS performs all the search operations itself". The
// software matcher runs the same level-3+XB algorithm (package ptu).
//
// drive is the spindle the clause file streams from: the leased unit's
// on the sim engine, the arena's ledger on the native one. The host-only
// rung passes a drive of its own — the host reads the clause file through
// its own block I/O, costed by the drive model outside any per-spindle
// accounting — which nothing has armed with faults, so that path always
// completes.
func (r *Retriever) retrieveSoftware(goal term.Term, pred *Predicate, rt *Retrieval, drive *disk.Drive) error {
	all := pred.File.All()
	rt.Stats.AfterFS1 = len(all)
	rt.Stats.ClauseBytes = pred.File.SizeBytes()
	diskTime, err := drive.Scan(pred.File.SizeBytes())
	if err != nil {
		return err
	}
	rt.wall.lap(stageDiskFetch)
	cfg := ptuConfigFor(r.cfg.Microprogram)
	for _, sc := range all {
		head, _, err := pred.File.DecodeClause(sc)
		if err != nil {
			return err
		}
		rt.Stats.HostMatch += r.cfg.SoftwareMatchCost
		if ptu.Match(goal, head, cfg) {
			rt.Candidates = append(rt.Candidates, sc)
		}
	}
	rt.wall.lap(stageHostMatch)
	rt.Stats.DiskFetch = diskTime
	rt.Stats.Total = diskTime + rt.Stats.HostMatch
	return nil
}

// streamChunks resolves the fs1+fs2 pipeline's chunking of an n-entry
// index: entries per chunk and how many chunks that makes.
func (r *Retriever) streamChunks(n int) (chunk, count int) {
	chunk = r.cfg.StreamChunkEntries
	if chunk <= 0 {
		// One disk track per chunk — the paper's worst-case unit of a
		// single FS2 search call (§3.2).
		chunk = r.cfg.Disk.TrackBytes / scw.EntrySize
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
