// Package crs implements the Clause Retrieval Server: "an independent
// software module ... which links CLARE with the PDBM Prolog system"
// (§2.2). The CRS selects one of the four searching modes per retrieval,
// and supports "simultaneous access by multiple clients which involves
// procedures for concurrency control and transaction handling".
package crs

import (
	"errors"
	"fmt"
	"sort"
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
// its own read/write lock (readers share; a write or a COMMIT excludes);
// and the native retriever runs retrievals in parallel, each in an arena
// of its own, so sessions on different — or read-only same — predicates
// proceed in parallel. (A sim retriever's retrievals take turns on its
// one board unit.)
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

	// Always-on diagnosis layer (both optional, nil-safe): the flight
	// recorder the retriever writes into (held here for the FLIGHT verb
	// and crash snapshots) and the structured event logger.
	flight     *telemetry.FlightRecorder
	flightSnap string
	log        *telemetry.Logger

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
	}
}

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
// (a no-op without a recorder or path). The daemons call it on SIGTERM;
// the wire handler calls it on panic.
func (s *Server) SnapshotFlight() error {
	if s.flight == nil || s.flightSnap == "" {
		return nil
	}
	return s.flight.SnapshotToFile(s.flightSnap)
}

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
	rt, _, err := c.serve(goal, mode, tc, false)
	return rt, err
}

// Explain serves one EXPLAIN call: a served retrieval — same locking,
// mode choice and accounting as Retrieve — then profiled per filter rung
// under the same read lock, since pricing a native retrieval re-sweeps
// the predicate's index.
func (c *Session) Explain(goal term.Term, mode *core.SearchMode, tc *telemetry.TraceContext) (*core.Profile, error) {
	_, p, err := c.serve(goal, mode, tc, true)
	return p, err
}

// serve is the one path a retrieval takes through a session: predicate
// lookup, read lock, mode choice, the retrieval itself, accounting — and,
// when explain is set, its profile, still under the read lock.
func (c *Session) serve(goal term.Term, mode *core.SearchMode, tc *telemetry.TraceContext, explain bool) (*core.Retrieval, *core.Profile, error) {
	ps, err := c.lookup(goal)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	ps.lock.RLock()
	defer ps.lock.RUnlock()
	c.srv.met.lockWaitRead.ObserveDuration(time.Since(start))

	m, err := c.chooseMode(goal, mode)
	if err != nil {
		return nil, nil, err
	}
	// No server-wide lock here: native retrievals run in parallel, and
	// sim retrievals queue for the one board unit, as the paper's CRS
	// queues search calls for its one board.
	rt, err := c.srv.retriever.RetrieveTraced(goal, m, tc)
	if err != nil {
		return nil, nil, err
	}
	c.srv.account(rt)
	if !explain {
		return rt, nil, nil
	}
	p, err := c.srv.retriever.ProfileOf(rt)
	return rt, p, err
}

// lookup validates the session and resolves the goal's predicate state.
func (c *Session) lookup(goal term.Term) (*predState, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()

	pi, err := indicatorOf(goal)
	if err != nil {
		return nil, err
	}
	ps, ok := c.srv.state(pi)
	if !ok {
		return nil, fmt.Errorf("crs: unknown predicate %v", pi)
	}
	return ps, nil
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

// account publishes one served retrieval into the service counters. Its
// wall time is already in the engine's own record: the retrieval
// histogram and the flight ring.
func (s *Server) account(rt *core.Retrieval) {
	st := &rt.Stats
	s.statsMu.Lock()
	s.served[rt.Mode]++
	if st.Degraded != "" {
		s.degraded++
	}
	s.retries += int64(st.Retries)
	s.faults += int64(st.Faults)
	s.statsMu.Unlock()
	s.met.requests[rt.Mode].Inc()
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

// Assert stages a clause append within the transaction. It takes no
// lock: the predicates a transaction writes are locked only inside
// Commit, so an open transaction blocks no reader, and no writer.
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
	if _, ok := c.srv.state(pi); !ok {
		return fmt.Errorf("crs: unknown predicate %v (load it first)", pi)
	}
	c.tx.staged[pi] = append(c.tx.staged[pi], core.ClauseTerm{Head: head, Body: body})
	return nil
}

// Commit applies the staged writes — each clause appended in place to its
// predicate's compiled clause file and secondary index. It write-locks
// the staged predicates in indicator order, so two commits over the same
// predicates queue rather than deadlock, and holds the locks from prepare
// through the log append to the last apply.
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
	c.tx = nil
	c.srv.met.txCommits.Inc()
	tr := c.srv.retriever.Tracer().Start("commit")
	defer c.srv.retriever.Tracer().Finish(tr)
	pis := make([]core.Indicator, 0, len(txn.staged))
	for pi := range txn.staged {
		pis = append(pis, pi)
	}
	sort.Slice(pis, func(i, j int) bool {
		if pis[i].Functor != pis[j].Functor {
			return pis[i].Functor < pis[j].Functor
		}
		return pis[i].Arity < pis[j].Arity
	})
	locked := make([]*predState, 0, len(pis))
	defer func() {
		for _, ps := range locked {
			ps.lock.Unlock()
		}
	}()
	for _, pi := range pis {
		ps, ok := c.srv.state(pi)
		if !ok {
			return fmt.Errorf("crs: unknown predicate %v (load it first)", pi)
		}
		lockStart := time.Now()
		ps.lock.Lock()
		c.srv.met.lockWaitWrite.ObserveDuration(time.Since(lockStart))
		locked = append(locked, ps)
	}
	// Prepare first: a clause the store cannot hold fails the commit here,
	// with nothing of the batch logged or applied.
	var applies []func() error
	var recs []wal.Record
	for i, pi := range pis {
		for _, cl := range txn.staged[pi] {
			apply, err := c.srv.prepare(wal.OpAssert, pi, cl.Head, cl.Body)
			if err != nil {
				return fmt.Errorf("crs: commit failed for %v: %w", pi, err)
			}
			applies = append(applies, apply)
			recs = append(recs, wal.Record{Op: wal.OpAssert, Module: locked[i].module, Clause: renderClause(cl.Head, cl.Body)})
		}
	}
	// Write-ahead: the transaction's appends become one log batch (one
	// durability unit, consecutive seqs, one policy fsync) before any
	// compiled clause file changes. The affected predicates stay
	// write-locked until the last apply, so replay order per predicate
	// matches apply order.
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

// Abort discards the staged writes.
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

// abortLocked discards the open transaction; the caller holds c.mu.
func (c *Session) abortLocked() {
	c.tx = nil
	c.srv.met.txAborts.Inc()
}
