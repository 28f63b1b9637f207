package crs

// Durable write path: the server's write-ahead-log integration. A
// primary logs every mutation (autocommit WRITE, transaction COMMIT)
// before changing the compiled clause files, replays the log over the
// loaded base store at startup, and serves the log suffix to replicas
// over SYNC; a replica applies primary-sequenced records via
// ApplyReplicated (REPL), idempotently and in order, so identical logs
// yield identical stores.

import (
	"errors"
	"fmt"
	"time"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/unify"
	"clare/internal/wal"
)

// ErrWALDisabled answers log operations (SYNC) on a server booted
// without -wal-dir.
var ErrWALDisabled = errors.New("crs: wal not enabled")

// AttachWAL wires the shard's write-ahead log into the server. Call it
// after the base store is loaded (Load/Adopt) and before Serve; follow
// with Recover to replay the log over the base.
func (s *Server) AttachWAL(l *wal.Log) { s.walLog = l }

// WAL returns the attached log (nil when the server runs without one).
func (s *Server) WAL() *wal.Log { return s.walLog }

// AppliedSeq reports the last log sequence number applied to the store
// (0 before any write).
func (s *Server) AppliedSeq() uint64 { return s.applied.Load() }

// SetReadOnly marks the server a replica: client writes (BEGIN, WRITE)
// are rejected with ErrReadOnly while replicated applies (REPL) and
// retrievals proceed.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// IsReadOnly reports whether the server rejects client writes.
func (s *Server) IsReadOnly() bool { return s.readOnly.Load() }

// Recover replays the attached log over the loaded base store — the
// crash-recovery path. The base (compiled .pl/kb files) is immutable on
// disk, so base + full log replay reproduces the pre-crash store; the
// log's own Open already truncated any torn tail, so replay sees a
// clean prefix. Returns the number of records applied.
func (s *Server) Recover() (int, error) {
	if s.walLog == nil {
		return 0, nil
	}
	n := 0
	var applyErr error
	err := s.walLog.Range(1, func(rec wal.Record) bool {
		if applyErr = s.applyRecord(rec); applyErr != nil {
			return false
		}
		s.applied.Store(rec.Seq)
		n++
		return true
	})
	if err == nil {
		err = applyErr
	}
	return n, err
}

// LogSuffix serves the SYNC wire command: up to max records with
// seq >= from, plus the log's last seq.
func (s *Server) LogSuffix(from uint64, max int) ([]wal.Record, uint64, error) {
	if s.walLog == nil {
		return nil, 0, ErrWALDisabled
	}
	return s.walLog.Suffix(from, max)
}

// ApplyReplicated lands one primary-sequenced record on this server —
// the REPL wire command, driven by the cluster shipper or a follower's
// catch-up. The returned seq is the server's applied watermark and is
// authoritative for the caller: a duplicate (seq <= applied) acks
// without re-applying, a gap (seq > applied+1) acks the current
// watermark without applying so the sender rewinds, and only the exact
// next record is logged and applied.
func (s *Server) ApplyReplicated(rec wal.Record) (uint64, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	applied := s.applied.Load()
	if rec.Seq != applied+1 {
		return applied, nil
	}
	if s.walLog != nil && s.walLog.LastSeq() < rec.Seq {
		if err := s.walLog.AppendAt(rec); err != nil {
			return applied, err
		}
	}
	if err := s.applyRecord(rec); err != nil {
		return applied, err
	}
	s.applied.Store(rec.Seq)
	s.replicated.Add(1)
	s.met.replApplied.Inc()
	return rec.Seq, nil
}

// applyRecord mutates the store per one log record (replay and
// replication share it). Unlike the client write path, a missing
// predicate is created from the record's module — the record was
// validated against a loaded predicate on the primary, so a miss here
// means the record legitimately introduced it.
func (s *Server) applyRecord(rec wal.Record) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("crs: wal seq %d: %w", rec.Seq, err)
		}
	}()
	cl, err := parse.Term(rec.Clause)
	if err != nil {
		return err
	}
	head, body := splitClause(cl)
	pi, err := indicatorOf(head)
	if err != nil {
		return err
	}
	ps, ok := s.state(pi)
	if !ok {
		if rec.Op == wal.OpRetract {
			return fmt.Errorf("retract of unknown predicate %v", pi)
		}
		return s.Load(rec.Module, []core.ClauseTerm{{Head: head, Body: body}})
	}
	ps.lock.Lock()
	defer ps.lock.Unlock()
	apply, err := s.prepare(rec.Op, pi, head, body)
	if err != nil {
		return err
	}
	return apply()
}

// prepare takes one write on pi — whose write lock the caller holds — as
// far as it can be refused: an assert is compiled, a retract's victim
// found. The apply it returns changes the compiled clause file in place
// and fails only on a stored record that does not decode, so a write
// logged between the two is one every replay of the log can take.
func (s *Server) prepare(op wal.Op, pi core.Indicator, head, body term.Term) (apply func() error, err error) {
	pred, ok := s.retriever.PredicateByIndicator(pi)
	if !ok {
		return nil, fmt.Errorf("crs: %v is not in the store", pi)
	}
	switch op {
	case wal.OpAssert:
		c, err := pred.Compile(head, body)
		if err != nil {
			return nil, fmt.Errorf("crs: assert refused: %w", err)
		}
		return func() error { pred.Append(c); return nil }, nil
	case wal.OpRetract:
		i, err := s.victim(pred, head, body)
		if err != nil {
			return nil, err
		}
		if pred.File.Len() == 1 {
			return nil, fmt.Errorf("crs: retract would empty %v (reload the predicate instead)", pi)
		}
		return func() error { return pred.Remove(i) }, nil
	}
	return nil, fmt.Errorf("crs: unknown op %v", op)
}

// victim finds the clause a retract of head :- body removes: the first, in
// user order, jointly unifiable with it (deterministic, so every replica
// picks the same one). The store is asked the way a Prolog host asks it:
// the engine's own filter returns, in user order, a superset of the
// clauses whose heads unify with head, and only those are decoded and
// unified. Going straight to the retriever, it is not a served retrieval.
func (s *Server) victim(pred *core.Predicate, head, body term.Term) (int, error) {
	rt, err := s.retriever.Retrieve(head, core.ModeFS1FS2)
	if err != nil {
		return 0, err
	}
	want := clausePair(head, body)
	for _, sc := range rt.Candidates {
		// A decoded clause has variables of its own: nothing to rename.
		h, b, err := pred.File.DecodeClause(sc)
		if err != nil {
			return 0, err
		}
		if unify.Unifiable(want, clausePair(h, b)) {
			return sc.Seq, nil
		}
	}
	return 0, fmt.Errorf("crs: no clause of %s matches %s", rt.Predicate, renderClause(head, body))
}

// noteWrite publishes a completed primary write: the applied watermark
// advances to seq and the per-op write counter moves by n.
func (s *Server) noteWrite(seq uint64, op wal.Op, n int) {
	s.advanceApplied(seq)
	switch op {
	case wal.OpAssert:
		s.met.writesAssert.Add(int64(n))
	case wal.OpRetract:
		s.met.writesRetract.Add(int64(n))
	}
}

// advanceApplied lifts the applied watermark to seq (never lowers it —
// concurrent writes on different predicates may complete out of seq
// order).
func (s *Server) advanceApplied(seq uint64) {
	for {
		cur := s.applied.Load()
		if seq <= cur || s.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// AssertNow appends one clause outside any transaction (the WRITE wire
// command): logged, applied, and durable per the fsync policy before
// the sequence number returns.
func (c *Session) AssertNow(head, body term.Term) (uint64, error) {
	return c.writeNow(wal.OpAssert, head, body)
}

// RetractNow removes the first clause unifying with head :- body,
// outside any transaction. Retracting a predicate's last clause is
// rejected (a compiled clause file cannot be empty; drop the predicate
// by reloading instead).
func (c *Session) RetractNow(head, body term.Term) (uint64, error) {
	return c.writeNow(wal.OpRetract, head, body)
}

func (c *Session) writeNow(op wal.Op, head, body term.Term) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	if c.tx != nil {
		// An autocommit write under an open transaction would deadlock on
		// the transaction's own predicate locks; stage through ASSERT
		// instead.
		c.mu.Unlock()
		return 0, ErrInTransaction
	}
	c.mu.Unlock()
	s := c.srv
	if s.readOnly.Load() {
		return 0, ErrReadOnly
	}
	pi, err := indicatorOf(head)
	if err != nil {
		return 0, err
	}
	ps, ok := s.state(pi)
	if !ok {
		return 0, fmt.Errorf("crs: unknown predicate %v (load it first)", pi)
	}
	tr := s.retriever.Tracer().Start("write")
	defer s.retriever.Tracer().Finish(tr)
	lockStart := time.Now()
	ps.lock.Lock()
	s.met.lockWaitWrite.ObserveDuration(time.Since(lockStart))
	defer ps.lock.Unlock()

	// Before logging: a write the store cannot take must never enter the
	// log — recovery and every replica would fail on the same record.
	apply, err := s.prepare(op, pi, head, body)
	if err != nil {
		return 0, err
	}
	var seq uint64
	sp := tr.Span(nil, "wal")
	if s.walLog != nil {
		if seq, err = s.walLog.Append(op, ps.module, renderClause(head, body)); err != nil {
			sp.End()
			return 0, err
		}
	} else {
		seq = s.memSeq.Add(1)
	}
	sp.End()

	applySp := tr.Span(nil, "apply")
	defer applySp.End()
	if err := apply(); err != nil {
		return 0, fmt.Errorf("crs: apply %v: %w", op, err)
	}
	s.noteWrite(seq, op, 1)
	return seq, nil
}

// renderClause renders a clause back to the Edinburgh source form log
// records carry (no trailing '.'); variables print as _G<id>, which
// parse.Term round-trips.
func renderClause(head, body term.Term) string {
	if body == nil || term.Equal(body, term.Atom("true")) {
		return fmt.Sprintf("%s", head)
	}
	return fmt.Sprintf("%s :- %s", head, body)
}

func clausePair(head, body term.Term) term.Term {
	if body == nil {
		body = term.Atom("true")
	}
	return &term.Compound{Functor: ":-", Args: []term.Term{head, body}}
}
