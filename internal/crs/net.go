package crs

import (
	"context"
	"fmt"
	"net"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/wal"
	"clare/internal/wire"
)

// The wire protocol is specified and framed in package wire; this file
// binds its verbs to a Session.

// syncBatch caps the records one SYNC reply carries; a shipper that
// needs more keeps pulling from its advanced watermark.
const syncBatch = 512

// ParseMode maps a wire-mode word to a search mode; auto returns nil
// (heuristic selection).
func ParseMode(s string) (*core.SearchMode, error) {
	var m core.SearchMode
	switch s {
	case "auto":
		return nil, nil
	case "software":
		m = core.ModeSoftware
	case "fs1":
		m = core.ModeFS1
	case "fs2":
		m = core.ModeFS2
	case "fs1+fs2":
		m = core.ModeFS1FS2
	default:
		return nil, fmt.Errorf("crs: unknown mode %q", s)
	}
	return &m, nil
}

// Serve accepts connections on l until it is closed. Each connection gets
// its own session. Serve returns after the listener closes and all
// connection handlers finish.
func (s *Server) Serve(l net.Listener) error { return s.acc.Serve(l, s.serveConn) }

// Shutdown drains the server (wire.Acceptor.Shutdown): new connections
// are refused, idle ones close at once, and one running a request closes
// once its reply has gone out. If ctx expires first, the connections
// still running a request are force-closed (the retrieval still runs to
// completion; its client sees the connection drop) and ctx.Err() is
// returned. The caller should close its listeners first so Serve stops
// accepting.
func (s *Server) Shutdown(ctx context.Context) error { return s.acc.Shutdown(ctx) }

// wireConn is one connection's state: its session on the server, and the
// buffer its RETRIEVE replies are rendered in — reused from reply to
// reply, so a connection's steady state allocates nothing per candidate.
type wireConn struct {
	srv    *Server
	sess   *Session
	render []byte
}

// maxKeptRender bounds the render buffer a connection keeps between
// replies; one reply larger than this is not held against its memory for
// as long as it stays open.
const maxKeptRender = 1 << 20

// verbs is every verb the backend serves.
var verbs = wire.Table[*wireConn]{}

func init() {
	verbs.Plain("HELLO", (*wireConn).hello)
	verbs.Plain("STATS", (*wireConn).stats)
	verbs.Count("FLIGHT", (*wireConn).flight)
	verbs.Query("RETRIEVE", (*wireConn).retrieve)
	verbs.Query("EXPLAIN", (*wireConn).explain)
	verbs.Plain("BEGIN", func(c *wireConn, r *wire.Reply) { r.Done(c.sess.Begin()) })
	verbs.Clause("ASSERT", (*wireConn).assert)
	verbs.Plain("COMMIT", func(c *wireConn, r *wire.Reply) { r.Done(c.sess.Commit()) })
	verbs.Plain("ABORT", func(c *wireConn, r *wire.Reply) { r.Done(c.sess.Abort()) })
	verbs.Write("WRITE", (*wireConn).write)
	verbs.Sync("SYNC", (*wireConn).sync)
	verbs.Record("REPL", (*wireConn).repl)
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		// A handler panic is exactly the moment the black box must
		// survive the process: snapshot the flight ring, then crash as
		// before.
		if r := recover(); r != nil {
			s.log.Error("wire handler panic", "panic", fmt.Sprint(r))
			if err := s.SnapshotFlight(); err != nil {
				s.log.Error("flight snapshot failed", "error", err.Error())
			}
			panic(r)
		}
	}()
	sess := s.OpenSession()
	defer sess.Close()
	verbs.Serve(conn, &wireConn{srv: s, sess: sess}, s.met.wireErrs)
}

func (c *wireConn) hello(r *wire.Reply) { r.OK("crs", c.sess.ID()) }

func (c *wireConn) stats(r *wire.Reply) {
	kv := c.srv.Snapshot().lines()
	r.Header("STATS", len(kv))
	for _, p := range kv {
		r.Body("S", "%s %d", p.Key, p.Value)
	}
}

func (c *wireConn) flight(r *wire.Reply, n int) {
	wire.JSONBody(r, "FLIGHT", "F", c.srv.flight.Snapshot(n))
}

// parseQuery resolves a query's mode word and goal text.
func parseQuery(q wire.Query) (*core.SearchMode, term.Term, error) {
	mode, err := ParseMode(q.Mode)
	if err != nil {
		return nil, nil, err
	}
	goal, err := parse.Term(q.Goal)
	return mode, goal, err
}

func (c *wireConn) retrieve(r *wire.Reply, q wire.Query) {
	mode, goal, err := parseQuery(q)
	if err != nil {
		r.Fail(err)
		return
	}
	rt, err := c.sess.RetrieveTraced(goal, mode, q.Trace)
	if err != nil {
		r.Fail(err)
		return
	}
	// The candidates go out as their stored words render: no term is
	// built for a clause the host may never unify with.
	body, err := rt.AppendCandidateLines(c.render[:0], "C ")
	if err != nil {
		r.Fail(err)
		return
	}
	r.Block("CANDIDATES", len(rt.Candidates), body)
	if c.render = body; cap(body) > maxKeptRender {
		c.render = nil
	}
	r.Line("%v", wire.Funnel{Mode: rt.Mode.String(), Total: int64(rt.Stats.TotalClauses),
		FS1: int64(rt.Stats.AfterFS1), FS2: int64(rt.Stats.AfterFS2)})
	if q.Trace != nil {
		r.Trace(rt.Trace().Wire())
	}
}

func (c *wireConn) explain(r *wire.Reply, q wire.Query) {
	mode, goal, err := parseQuery(q)
	if err != nil {
		r.Fail(err)
		return
	}
	p, err := c.sess.Explain(goal, mode, q.Trace)
	if err != nil {
		r.Fail(err)
		return
	}
	entries := p.Entries()
	r.Header("EXPLAIN", len(entries))
	for _, e := range entries {
		r.Body("E", "%s %s", e.Key, e.Value)
	}
	if q.Trace != nil {
		r.Trace(p.Trace.Wire())
	}
}

func (c *wireConn) assert(r *wire.Reply, clause string) {
	cl, err := parse.Term(clause)
	if err != nil {
		r.Fail(err)
		return
	}
	r.Done(c.sess.Assert(splitClause(cl)))
}

func (c *wireConn) write(r *wire.Reply, op wal.Op, clause string) {
	cl, err := parse.Term(clause)
	if err != nil {
		r.Fail(err)
		return
	}
	head, body := splitClause(cl)
	var seq uint64
	if op == wal.OpAssert {
		seq, err = c.sess.AssertNow(head, body)
	} else {
		seq, err = c.sess.RetractNow(head, body)
	}
	r.Done(err, seq)
}

func (c *wireConn) sync(r *wire.Reply, _ int, from uint64) {
	recs, last, err := c.srv.LogSuffix(from, syncBatch)
	if err != nil {
		r.Fail(err)
		return
	}
	r.Log(recs, last)
}

func (c *wireConn) repl(r *wire.Reply, rec wal.Record) {
	applied, err := c.srv.ApplyReplicated(rec)
	r.Done(err, applied)
}

func splitClause(t term.Term) (head, body term.Term) {
	if c, ok := term.Deref(t).(*term.Compound); ok && c.Functor == ":-" && len(c.Args) == 2 {
		return c.Args[0], c.Args[1]
	}
	return t, term.Atom("true")
}
