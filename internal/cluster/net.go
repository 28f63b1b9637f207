package cluster

import (
	"context"
	"net"
	"sort"
	"sync/atomic"

	"clare/internal/crs"
	"clare/internal/wal"
	"clare/internal/wire"
)

// Server is the cluster's wire front-end: it speaks the CRS protocol of
// package wire unchanged (every verb but REPL), so crsctl and crs.Client
// work against a cluster transparently. RETRIEVE and STATS
// scatter-gather through the Router; WRITE and SYNC route to the owning
// shard's primary; transactions pass through to the primary of the
// shard owning the first asserted predicate (see Tx).
//
// The diagnosis verbs follow the same split: FLIGHT dumps the ROUTER'S
// own flight recorder (the cluster-level view — routing decisions,
// hedges, merged funnels), while SLOWLOG scatter-gathers the backends'
// slow-query captures merged by capture time, because the EXPLAIN
// re-run that fills a capture only ever happens where the clauses live.
type Server struct {
	router   *Router
	nextSess atomic.Int64
	acc      wire.Acceptor
}

// NewServer wraps a router in the wire front-end.
func NewServer(r *Router) *Server { return &Server{router: r} }

// Router exposes the underlying scatter-gather router.
func (s *Server) Router() *Router { return s.router }

// Serve accepts connections on l until it closes, one handler per
// connection — the same accept loop contract as crs.Server.Serve.
func (s *Server) Serve(l net.Listener) error { return s.acc.Serve(l, s.serveConn) }

// Shutdown drains the front-end: new connections are refused and
// Shutdown returns when in-flight handlers finish, or force-closes the
// stragglers when ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error { return s.acc.Shutdown(ctx) }

// frontConn is one connection's state: its session id and its
// pass-through transaction.
type frontConn struct {
	router *Router
	id     int64
	tx     Tx
}

// verbs is every verb the front-end serves.
var verbs = wire.Table[*frontConn]{}

func init() {
	verbs.Plain("HELLO", func(c *frontConn, r *wire.Reply) { r.OK("crs", c.id) })
	verbs.Plain("STATS", (*frontConn).stats)
	verbs.Count("FLIGHT", (*frontConn).flight)
	verbs.Count("SLOWLOG", (*frontConn).slowLog)
	verbs.Query("RETRIEVE", (*frontConn).retrieve)
	verbs.Query("EXPLAIN", (*frontConn).explain)
	verbs.Plain("BEGIN", func(c *frontConn, r *wire.Reply) { r.Done(c.tx.Begin()) })
	verbs.Clause("ASSERT", func(c *frontConn, r *wire.Reply, clause string) { r.Done(c.tx.Assert(clause)) })
	verbs.Plain("COMMIT", func(c *frontConn, r *wire.Reply) { r.Done(c.tx.End(true)) })
	verbs.Plain("ABORT", func(c *frontConn, r *wire.Reply) { r.Done(c.tx.End(false)) })
	verbs.Write("WRITE", (*frontConn).write)
	verbs.Sync("SYNC", (*frontConn).sync)
}

func (s *Server) serveConn(conn net.Conn) {
	c := &frontConn{router: s.router, id: s.nextSess.Add(1), tx: Tx{r: s.router}}
	defer c.tx.Drop()
	verbs.Serve(conn, c, nil)
}

func (c *frontConn) stats(r *wire.Reply) {
	kv, err := c.router.Stats()
	if err != nil {
		r.Fail(err)
		return
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic wire order, cluster-wide
	r.Header("STATS", len(keys))
	for _, k := range keys {
		r.Body("S", "%s %d", k, kv[k])
	}
}

func (c *frontConn) flight(r *wire.Reply, n int) {
	wire.JSONBody(r, "FLIGHT", "F", c.router.Flight().Snapshot(n))
}

func (c *frontConn) slowLog(r *wire.Reply, n int) {
	caps, err := c.router.SlowTail(n)
	if err != nil {
		r.Fail(err)
		return
	}
	wire.JSONBody(r, "SLOWLOG", "Q", caps)
}

func (c *frontConn) retrieve(r *wire.Reply, q wire.Query) {
	if _, err := crs.ParseMode(q.Mode); err != nil {
		r.Fail(err)
		return
	}
	res, err := c.router.RetrieveTraced(q.Mode, q.Goal, q.Trace)
	if err != nil {
		r.Fail(err)
		return
	}
	// The candidate lines go out as the backend framed them.
	r.BlockString("CANDIDATES", len(res.Clauses), res.Body)
	r.Line("%s", res.Stats)
	if q.Trace != nil {
		r.Trace(res.Spans)
	}
}

func (c *frontConn) explain(r *wire.Reply, q wire.Query) {
	if _, err := crs.ParseMode(q.Mode); err != nil {
		r.Fail(err)
		return
	}
	res, err := c.router.ExplainTraced(q.Mode, q.Goal, q.Trace)
	if err != nil {
		r.Fail(err)
		return
	}
	r.Header("EXPLAIN", len(res.Entries))
	for _, e := range res.Entries {
		r.Body("E", "%s %s", e.Key, e.Value)
	}
	if q.Trace != nil {
		r.Trace(res.Spans)
	}
}

func (c *frontConn) write(r *wire.Reply, op wal.Op, clause string) {
	seq, err := c.router.Write(op.String(), clause)
	r.Done(err, seq)
}

func (c *frontConn) sync(r *wire.Reply, shard int, from uint64) {
	recs, last, err := c.router.SyncLog(shard, from)
	if err != nil {
		r.Fail(err)
		return
	}
	r.Log(recs, last)
}
