// Package crs implements the Clause Retrieval Server: "an independent
// software module ... which links CLARE with the PDBM Prolog system"
// (§2.2). The CRS selects one of the four searching modes per retrieval,
// and supports "simultaneous access by multiple clients which involves
// procedures for concurrency control and transaction handling".
package crs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clare/internal/core"
	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/wal"
	"clare/internal/wire"
)

// Server owns a CLARE retriever and the clause data behind it, mediating
// concurrent client access. Concurrency is layered: the server mutex
// guards only the predicate and session registries; each predicate has
// its own read/write lock (readers share, transactions exclude); and the
// retriever runs retrievals in parallel (native: unleased, each in an
// arena of its own; sim: each on a leased board unit, up to the chassis
// width), so sessions on different — or read-only same — predicates
// proceed in parallel.
type Server struct {
	mu        sync.RWMutex // guards preds and sessions registries only
	retriever *core.Retriever
	preds     map[core.Indicator]*predState
	sessions  map[int64]*Session
	nextSess  int64

	// Stats counts served retrievals by mode, plus the fault-tolerance
	// tallies (degraded rungs taken, retries spent, faults absorbed)
	// accumulated from each retrieval's stage stats.
	statsMu  sync.Mutex
	served   map[core.SearchMode]int
	degraded int64
	retries  int64
	faults   int64

	// met mirrors the service counters into the retriever's metrics
	// registry (no-ops when the retriever is uninstrumented).
	met *serverMetrics

	// lat tracks per-predicate retrieval wall time for the /top admin
	// endpoint ("which predicates are eating the wall clock").
	lat *telemetry.LatencyTracker

	// Always-on diagnosis layer (all optional, nil-safe): the flight
	// recorder the retriever writes into (held here for the FLIGHT verb
	// and crash snapshots), the slow-query log with its thresholds, the
	// SLO tracker, and the structured event logger.
	flight     *telemetry.FlightRecorder
	flightSnap string
	slowLog    *telemetry.SlowQueryLog
	slowAbs    time.Duration // absolute slow threshold; 0 = off
	slowMult   float64       // adaptive: slowMult × predicate rolling P99; 0 = off
	slo        *telemetry.SLOTracker
	log        *telemetry.Logger
	slowWG     sync.WaitGroup

	// Durable write path (see wal.go). walLog is the shard's
	// write-ahead log (nil = writes are memory-only, the pre-WAL
	// behavior); applied tracks the last log sequence number applied to
	// the store; memSeq hands out sequence numbers when no log is
	// attached; readOnly marks a replica (client writes rejected,
	// replicated applies allowed); applyMu serializes the replication
	// apply path so its seq check and store mutation are atomic.
	walLog     *wal.Log
	applyMu    sync.Mutex
	applied    atomic.Uint64
	memSeq     atomic.Uint64
	readOnly   atomic.Bool
	replicated atomic.Int64

	// acc tracks connections for Serve/Shutdown.
	acc wire.Acceptor
}

// predState is what the server holds per predicate: the lock that orders
// its readers and writers, and the module its log records name. The
// clauses themselves live once, in the retriever's compiled clause file.
type predState struct {
	lock   sync.RWMutex
	module string
}

// NewServer wraps a retriever.
func NewServer(r *core.Retriever) *Server {
	return &Server{
		retriever: r,
		preds:     make(map[core.Indicator]*predState),
		sessions:  make(map[int64]*Session),
		served:    make(map[core.SearchMode]int),
		met:       newServerMetrics(r.Metrics()),
		lat:       telemetry.NewLatencyTracker(0),
	}
}

// Latency exposes the per-predicate latency tracker (for the admin
// mux's /top endpoint).
func (s *Server) Latency() *telemetry.LatencyTracker { return s.lat }

// SetLatencyWindow replaces the latency tracker with one retaining n
// samples per predicate (n <= 0 keeps the default). Call before the
// server starts serving traffic — the swap is not synchronized against
// in-flight observations, and samples already recorded are dropped.
func (s *Server) SetLatencyWindow(n int) { s.lat = telemetry.NewLatencyTracker(n) }

// SetFlight attaches the flight recorder the retriever records into, so
// the FLIGHT verb can dump it, and names the path crash snapshots go to
// ("" disables snapshot-on-panic). Call before serving traffic.
func (s *Server) SetFlight(f *telemetry.FlightRecorder, snapPath string) {
	s.flight = f
	s.flightSnap = snapPath
}

// Flight reports the attached flight recorder (nil when none).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// SnapshotFlight writes the flight ring to the configured snapshot path
// (a no-op without a recorder or path). The daemons call it on SIGTERM
// and the SLO tracker's breach callback; the wire handler calls it on
// panic.
func (s *Server) SnapshotFlight() error {
	if s.flight == nil || s.flightSnap == "" {
		return nil
	}
	return s.flight.SnapshotToFile(s.flightSnap)
}

// SetSlowLog arms slow-query capture: a served retrieval whose wall
// time exceeds the threshold re-runs ExplainTraced capture-side and
// lands in l with its full funnel profile. abs is the absolute
// threshold (-slow-ms); mult the adaptive one (mult × the predicate's
// rolling P99); when both are set the smaller wins, and 0/0 disables
// detection. Call before serving traffic.
func (s *Server) SetSlowLog(l *telemetry.SlowQueryLog, abs time.Duration, mult float64) {
	s.slowLog = l
	s.slowAbs = abs
	s.slowMult = mult
}

// SlowLog reports the attached slow-query log (nil when none).
func (s *Server) SlowLog() *telemetry.SlowQueryLog { return s.slowLog }

// SetSLO arms SLO accounting: every served retrieval (and failed
// retrieval) is observed into t. Call before serving traffic.
func (s *Server) SetSLO(t *telemetry.SLOTracker) { s.slo = t }

// SLOTracker reports the attached SLO tracker (nil when none).
func (s *Server) SLOTracker() *telemetry.SLOTracker { return s.slo }

// SetLogger attaches the structured event logger daemon-level events
// route through (nil stays silent).
func (s *Server) SetLogger(l *telemetry.Logger) { s.log = l }

// Errors.
var (
	ErrNoTransaction = errors.New("crs: no transaction in progress")
	ErrInTransaction = errors.New("crs: transaction already in progress")
	ErrClosed        = errors.New("crs: session closed")
	ErrReadOnly      = errors.New("crs: read-only replica (writes go to the shard primary)")
)

// Load installs (or replaces) a predicate's clauses. The new predicate
// state is published write-locked, so a concurrent Retrieve that finds
// it blocks until the compiled clause file is built; only the registry
// update itself holds the server mutex, so loads of different predicates
// and retrievals on other predicates proceed in parallel.
func (s *Server) Load(module string, clauses []core.ClauseTerm) error {
	if len(clauses) == 0 {
		return fmt.Errorf("crs: no clauses")
	}
	pi, err := indicatorOf(clauses[0].Head)
	if err != nil {
		return err
	}
	ps := &predState{module: module}
	ps.lock.Lock() // fresh mutex: never blocks
	defer ps.lock.Unlock()
	s.mu.Lock()
	s.preds[pi] = ps
	s.mu.Unlock()
	if _, err := s.retriever.AddClauses(module, clauses); err != nil {
		s.mu.Lock()
		if s.preds[pi] == ps {
			delete(s.preds, pi)
		}
		s.mu.Unlock()
		return err
	}
	return nil
}

// Adopt registers every predicate already present in the retriever but
// unknown to the server — the crsd -kb path, where MapRetriever built
// the predicates from a compiled store without going through Load. Each
// gets its lock and module name; the store stays the only copy of a clause.
func (s *Server) Adopt() error {
	for _, pi := range s.retriever.Predicates() {
		p, ok := s.retriever.PredicateByIndicator(pi)
		if !ok {
			continue
		}
		s.mu.Lock()
		if _, known := s.preds[pi]; !known {
			s.preds[pi] = &predState{module: p.File.Module}
		}
		s.mu.Unlock()
	}
	return nil
}

// state returns the server's lock and module name for pi.
func (s *Server) state(pi core.Indicator) (*predState, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.preds[pi]
	return ps, ok
}

func indicatorOf(t term.Term) (core.Indicator, error) {
	switch t := term.Deref(t).(type) {
	case term.Atom:
		return core.Indicator{Functor: string(t)}, nil
	case *term.Compound:
		return core.Indicator{Functor: t.Functor, Arity: len(t.Args)}, nil
	}
	return core.Indicator{}, fmt.Errorf("crs: %v is not callable", t)
}

// Retriever exposes the underlying CLARE engine.
func (s *Server) Retriever() *core.Retriever { return s.retriever }

// Served returns how many retrievals ran in each mode.
func (s *Server) Served() map[core.SearchMode]int {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := make(map[core.SearchMode]int, len(s.served))
	for k, v := range s.served {
		out[k] = v
	}
	return out
}

// OpenSession registers a client session.
func (s *Server) OpenSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSess++
	sess := &Session{id: s.nextSess, srv: s}
	s.sessions[sess.id] = sess
	s.met.sessTotal.Inc()
	s.met.sessOpen.Add(1)
	return sess
}

// Sessions reports the number of open sessions.
func (s *Server) Sessions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// Session is one client's connection to the CRS.
type Session struct {
	id     int64
	srv    *Server
	mu     sync.Mutex
	tx     *tx
	closed bool
}

type tx struct {
	// staged appends per predicate, applied at commit.
	staged map[core.Indicator][]core.ClauseTerm
	// locked predicates (write locks held until commit/abort).
	locked []*predState
}

// ID returns the session identifier.
func (c *Session) ID() int64 { return c.id }

// Close ends the session, aborting any open transaction.
func (c *Session) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.tx != nil {
		c.abortLocked()
	}
	c.closed = true
	c.srv.mu.Lock()
	delete(c.srv.sessions, c.id)
	c.srv.mu.Unlock()
	c.srv.met.sessOpen.Add(-1)
}

// Retrieve serves one retrieval. mode nil lets the CRS heuristic choose.
func (c *Session) Retrieve(goal term.Term, mode *core.SearchMode) (*core.Retrieval, error) {
	return c.RetrieveTraced(goal, mode, nil)
}

// RetrieveTraced is Retrieve joining a remote caller's trace context
// (nil is plain Retrieve) — the wire handler passes the RETRIEVE trace
// header through here so the retrieval's span tree records the caller's
// trace ID and parent span.
func (c *Session) RetrieveTraced(goal term.Term, mode *core.SearchMode, tc *telemetry.TraceContext) (*core.Retrieval, error) {
	return c.serve(goal, mode, tc)
}

// Explain serves one EXPLAIN call: a served retrieval — same locking,
// mode choice and accounting as Retrieve — whose candidates then go
// through the host reference-unification pass, profiled per filter rung.
// Like a reply's rendering, that pass reads only the candidates' own
// words, which outlive the read lock (clausefile.StoredClause).
func (c *Session) Explain(goal term.Term, mode *core.SearchMode, tc *telemetry.TraceContext) (*core.Profile, error) {
	rt, err := c.serve(goal, mode, tc)
	if err != nil {
		return nil, err
	}
	return c.srv.retriever.ProfileOf(rt)
}

// serve is the one path a retrieval takes through a session: predicate
// lookup, read lock, mode choice, the retrieval itself, accounting.
func (c *Session) serve(goal term.Term, mode *core.SearchMode, tc *telemetry.TraceContext) (*core.Retrieval, error) {
	pi, ps, err := c.lookup(goal)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ps.lock.RLock()
	defer ps.lock.RUnlock()
	c.srv.met.lockWaitRead.ObserveDuration(time.Since(start))

	m, err := c.chooseMode(goal, mode)
	if err != nil {
		return nil, err
	}
	// No server-wide lock here: native retrievals run in parallel, and a
	// sim retrieval leases a board unit from the chassis pool per call
	// (the real CRS queues search calls only when all boards are busy).
	rt, err := c.srv.retriever.RetrieveTraced(goal, m, tc)
	wall := time.Since(start)
	if err != nil {
		c.srv.slo.Observe(pi.String(), wall, true)
		return nil, err
	}
	c.srv.account(pi, rt, wall)
	return rt, nil
}

// lookup validates the session and resolves the goal's predicate state.
func (c *Session) lookup(goal term.Term) (core.Indicator, *predState, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return core.Indicator{}, nil, ErrClosed
	}
	c.mu.Unlock()

	pi, err := indicatorOf(goal)
	if err != nil {
		return core.Indicator{}, nil, err
	}
	ps, ok := c.srv.state(pi)
	if !ok {
		return core.Indicator{}, nil, fmt.Errorf("crs: unknown predicate %v", pi)
	}
	return pi, ps, nil
}

// chooseMode resolves the effective search mode; nil selects it by the
// CRS heuristic, core.ChooseMode.
func (c *Session) chooseMode(goal term.Term, mode *core.SearchMode) (core.SearchMode, error) {
	if mode != nil {
		return *mode, nil
	}
	pred, err := c.srv.retriever.Predicate(goal)
	if err != nil {
		return 0, err
	}
	return core.ChooseMode(goal, pred), nil
}

// account publishes one served retrieval — its record, plus the wall time
// the session saw around it (lock wait included) — into the service
// counters, the per-predicate latency window, and the SLO tracker, then
// checks the slow-query threshold — which must read the rolling P99
// before this sample joins the window, or a genuine outlier would raise
// its own adaptive bar.
func (s *Server) account(pi core.Indicator, rt *core.Retrieval, wall time.Duration) {
	st, pred := &rt.Stats, rt.Predicate
	s.statsMu.Lock()
	s.served[rt.Mode]++
	if st.Degraded != "" {
		s.degraded++
	}
	s.retries += int64(st.Retries)
	s.faults += int64(st.Faults)
	s.statsMu.Unlock()
	s.met.requests[rt.Mode].Inc()
	s.met.predCounter(pi).Inc()
	thr := s.slowThreshold(pred)
	s.lat.Observe(pred, wall)
	s.slo.Observe(pred, wall, false)
	if thr > 0 && wall > thr && s.slowLog.Offer(pred) {
		s.captureSlow(pi, rt, wall, thr)
	}
}

// slowThreshold resolves the predicate's slow-query bar: the absolute
// threshold, the adaptive multiple of its rolling P99, or — when both
// are armed — whichever is smaller. 0 means detection is off (no log,
// no thresholds, or an adaptive bar with no samples yet).
func (s *Server) slowThreshold(pred string) time.Duration {
	if s.slowLog == nil {
		return 0
	}
	thr := s.slowAbs
	if s.slowMult > 0 {
		if p99, ok := s.lat.Quantile(pred, 0.99); ok {
			if a := time.Duration(float64(p99) * s.slowMult); a > 0 && (thr == 0 || a < thr) {
				thr = a
			}
		}
	}
	return thr
}

// captureSlow re-runs the slow retrieval as an EXPLAIN on a background
// goroutine and publishes the capture. The re-run takes the predicate's
// read lock like any retrieval — writes change a compiled file in place —
// so it may profile a newer clause list than the retrieval saw; it
// bypasses account, so a capture can never trigger itself. It runs on a
// copy of the goal: profiling binds a goal's variables, and the goal
// itself is still the session's, which may be profiling it too.
func (s *Server) captureSlow(pi core.Indicator, rt *core.Retrieval, wall, thr time.Duration) {
	goal := term.Rename(rt.Goal)
	capt := &telemetry.SlowCapture{
		Predicate:   rt.Predicate,
		Mode:        rt.Mode.String(),
		Goal:        fmt.Sprint(rt.Goal),
		WallNS:      int64(wall),
		ThresholdNS: int64(thr),
		TraceID:     rt.TraceID(),
	}
	s.slowWG.Add(1)
	go func() {
		defer s.slowWG.Done()
		ps, _ := s.state(pi)
		ps.lock.RLock()
		p, err := s.retriever.ExplainTraced(goal, rt.Mode, nil)
		ps.lock.RUnlock()
		if err != nil {
			capt.Profile = []telemetry.KV{{Key: "error", Value: err.Error()}}
		} else {
			for _, e := range p.Entries() {
				capt.Profile = append(capt.Profile, telemetry.KV{Key: e.Key, Value: e.Value})
			}
		}
		s.slowLog.Add(capt)
		s.met.slowCaptures.Inc()
		s.log.Warn("slow query captured",
			"predicate", capt.Predicate, "mode", capt.Mode,
			"wall", wall.String(), "threshold", thr.String(),
			"trace", fmt.Sprintf("%016x", capt.TraceID))
	}()
}

// Begin starts a transaction.
func (c *Session) Begin() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.srv.readOnly.Load() {
		return ErrReadOnly
	}
	if c.tx != nil {
		return ErrInTransaction
	}
	c.tx = &tx{staged: make(map[core.Indicator][]core.ClauseTerm)}
	c.srv.met.txBegins.Inc()
	return nil
}

// Assert stages a clause append within the transaction. The predicate's
// write lock is taken on first touch and held to commit/abort (strict
// two-phase locking).
func (c *Session) Assert(head, body term.Term) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.tx == nil {
		return ErrNoTransaction
	}
	pi, err := indicatorOf(head)
	if err != nil {
		return err
	}
	ps, ok := c.srv.state(pi)
	if !ok {
		return fmt.Errorf("crs: unknown predicate %v (load it first)", pi)
	}
	if _, touched := c.tx.staged[pi]; !touched {
		lockStart := time.Now()
		ps.lock.Lock()
		c.srv.met.lockWaitWrite.ObserveDuration(time.Since(lockStart))
		c.tx.locked = append(c.tx.locked, ps)
	}
	c.tx.staged[pi] = append(c.tx.staged[pi], core.ClauseTerm{Head: head, Body: body})
	return nil
}

// Commit applies the staged writes — each clause appended in place to its
// predicate's compiled clause file and secondary index — and releases the
// locks.
func (c *Session) Commit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.tx == nil {
		return ErrNoTransaction
	}
	txn := c.tx
	defer func() {
		releaseLocks(txn)
		c.tx = nil
	}()
	c.srv.met.txCommits.Inc()
	tr := c.srv.retriever.Tracer().Start("commit")
	defer c.srv.retriever.Tracer().Finish(tr)
	// Prepare first: a clause the store cannot hold fails the commit here,
	// with nothing of the batch logged or applied.
	var applies []func() error
	var recs []wal.Record
	for pi, appended := range txn.staged {
		ps, _ := c.srv.state(pi)
		for _, cl := range appended {
			apply, err := c.srv.prepare(wal.OpAssert, pi, cl.Head, cl.Body)
			if err != nil {
				return fmt.Errorf("crs: commit failed for %v: %w", pi, err)
			}
			applies = append(applies, apply)
			recs = append(recs, wal.Record{Op: wal.OpAssert, Module: ps.module, Clause: renderClause(cl.Head, cl.Body)})
		}
	}
	// Write-ahead: the transaction's appends become one log batch (one
	// durability unit, consecutive seqs, one policy fsync) before any
	// compiled clause file changes. The affected predicates are all still
	// write-locked (since their first Assert), so replay order per
	// predicate matches apply order.
	if c.srv.walLog != nil && len(recs) > 0 {
		sp := tr.Span(nil, "wal")
		last, err := c.srv.walLog.AppendBatch(recs)
		sp.End()
		if err != nil {
			return fmt.Errorf("crs: commit wal append: %w", err)
		}
		defer c.srv.noteWrite(last, wal.OpAssert, len(recs)) // once applied, below
	}
	applySp := tr.Span(nil, "apply")
	defer applySp.End()
	for _, apply := range applies {
		if err := apply(); err != nil {
			return fmt.Errorf("crs: commit apply: %w", err)
		}
	}
	return nil
}

// Abort discards the staged writes and releases the locks.
func (c *Session) Abort() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.tx == nil {
		return ErrNoTransaction
	}
	c.abortLocked()
	return nil
}

func (c *Session) abortLocked() {
	releaseLocks(c.tx)
	c.tx = nil
	c.srv.met.txAborts.Inc()
}

func releaseLocks(txn *tx) {
	for _, ps := range txn.locked {
		ps.lock.Unlock()
	}
	txn.locked = nil
}
