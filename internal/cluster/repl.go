package cluster

// Replicated write path: each shard group's FIRST configured address is
// its primary — the only node that sequences writes. The router routes
// WRITE (autocommit assert/retract) and pass-through transactions to
// the primary, then ships the primary's WAL to the remaining replicas
// with one wal.Shipper per replica. Replica applied-seq watermarks feed
// the staleness bound: a replica trailing the primary by more than
// Config.MaxLag records is marked stale and demoted in the retrieval
// candidate order, exactly as a sick board drops down the degradation
// ladder — it keeps serving only when nothing fresher can.
//
// There is deliberately no write failover: a write that fails over to a
// replica would fork the log. When the primary is down, writes fail
// fast with the primary's error and retrievals keep flowing through the
// replicas.

import (
	"errors"
	"fmt"
	"strings"

	"clare/internal/crs"
	"clare/internal/wal"
)

// primary is the shard group's write head: the first configured address.
func (g *group) primary() *node { return g.nodes[0] }

// Assert routes one autocommit assert (clause source without the final
// '.') to the owning shard's primary and returns the assigned log seq.
func (r *Router) Assert(clause string) (uint64, error) {
	return r.Write("assert", clause)
}

// Retract routes one autocommit retract to the owning shard's primary.
func (r *Router) Retract(clause string) (uint64, error) {
	return r.Write("retract", clause)
}

// Write routes one autocommit write to the primary of the shard owning
// the clause's head predicate. Writes never fail over (a write applied
// on a replica would fork the log): the primary's error surfaces to the
// caller, who may retry once the primary is back.
func (r *Router) Write(op, clause string) (uint64, error) {
	if _, err := wal.ParseOp(op); err != nil {
		return 0, err
	}
	shard, _, err := r.clauseShard(clause)
	if err != nil {
		return 0, err
	}
	g := r.groups[shard]
	p := g.primary()
	seq, err := callNode(r, p, func(c *crs.Client) (uint64, error) {
		if op == "assert" {
			return c.AssertWithTimeout(clause, r.cfg.CallTimeout)
		}
		return c.RetractWithTimeout(clause, r.cfg.CallTimeout)
	})
	if err != nil {
		var se *crs.ServerError
		if !errors.As(err, &se) {
			// Transport failure: health bookkeeping as for a failed read,
			// except no ladder below — the error goes straight up.
			p.strike(r)
		}
		r.met.writeErrors.Inc()
		return 0, err
	}
	p.clear(r)
	r.writes.Add(1)
	r.met.writes[shard].Inc()
	for _, sh := range g.shippers {
		sh.Notify(seq)
	}
	return seq, nil
}

// clauseShard resolves the shard owning a clause's head predicate, and
// that predicate's indicator.
func (r *Router) clauseShard(clause string) (int, string, error) {
	head, _, _ := strings.Cut(clause, ":-")
	pi, err := GoalIndicator(strings.TrimSpace(head))
	if err != nil {
		return 0, "", err
	}
	return ShardOf(pi, len(r.groups)), pi, nil
}

// Tx is one front-end connection's pass-through transaction: a backend
// client pinned to the shard group that owns the first asserted
// predicate, with the backend BEGIN deferred until that first Assert
// names it. A transaction may touch exactly one shard — there is no
// distributed commit. The zero value with r set is a connection with no
// transaction open; a Tx is used by one goroutine.
type Tx struct {
	r      *Router
	open   bool
	shard  int
	node   *node
	client *crs.Client // nil until the first Assert
}

// Begin opens a transaction; nothing is staged anywhere yet.
func (t *Tx) Begin() error {
	if t.open {
		return crs.ErrInTransaction
	}
	t.open = true
	return nil
}

// Assert stages a clause on the pinned backend. A backend rejection
// leaves the transaction open; a transport failure loses it (the staged
// state is gone with the backend session, the client must re-run).
func (t *Tx) Assert(clause string) error {
	if !t.open {
		return crs.ErrNoTransaction
	}
	shard, pi, err := t.r.clauseShard(clause)
	if err != nil {
		return err
	}
	if t.client == nil {
		if t.client, t.node, err = t.r.beginOn(shard); err != nil {
			return err
		}
		t.shard = shard
	} else if shard != t.shard {
		return fmt.Errorf("cluster: cross-shard transaction (%s is on shard %d, transaction pinned to %d)",
			pi, shard, t.shard)
	}
	return t.backend(t.client.Assert(clause))
}

// End commits or aborts. The transaction is over either way.
func (t *Tx) End(commit bool) error {
	if !t.open {
		return crs.ErrNoTransaction
	}
	if t.client == nil { // empty transaction: nothing staged anywhere
		t.open = false
		return nil
	}
	end := t.client.Abort
	if commit {
		end = t.client.Commit
	}
	err := t.backend(end())
	if t.client == nil { // dropped: the backend was lost
		return err
	}
	t.node.put(t.client, t.r.cfg)
	t.open, t.client = false, nil
	if commit && err == nil {
		// The committed seqs are the primary's business; waking the
		// shard's shippers ships them without waiting out the idle
		// interval.
		t.r.NotifyShard(t.shard)
	}
	return err
}

// backend classifies a backend leg's outcome: a rejection passes
// through, a transport failure drops the transaction.
func (t *Tx) backend(err error) error {
	var se *crs.ServerError
	if err == nil || errors.As(err, &se) {
		return err
	}
	t.Drop()
	return fmt.Errorf("cluster: backend lost mid-transaction: %v", err)
}

// Drop abandons the transaction: closing the backend client closes its
// server session, which aborts the staged state and releases the
// predicate locks.
func (t *Tx) Drop() {
	if t.client != nil {
		t.node.discard(t.client)
	}
	t.open, t.client = false, nil
}

// beginOn leases a client to the shard's PRIMARY and opens a backend
// transaction on it: a transaction is a write, and only the primary
// sequences writes into the shard's log (a replica would reject BEGIN
// as read-only anyway). A stale pooled connection gets one fresh-dial
// retry; beyond that the transaction fails — there is no write
// failover.
func (r *Router) beginOn(shard int) (*crs.Client, *node, error) {
	p := r.groups[shard].primary()
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var c *crs.Client
		var pooled bool
		if c, pooled, err = p.get(r.cfg); err != nil {
			p.strike(r)
			break
		}
		if err = c.Begin(); err == nil {
			p.clear(r)
			return c, p, nil
		}
		var se *crs.ServerError
		if errors.As(err, &se) {
			p.put(c, r.cfg)
			break
		}
		p.discard(c)
		if !pooled {
			p.strike(r)
			break
		}
	}
	return nil, nil, err
}

// NotifyShard wakes the shard's shippers without a seq hint — used
// after a pass-through transaction commit, whose assigned seqs only the
// primary sees.
func (r *Router) NotifyShard(shard int) {
	if shard < 0 || shard >= len(r.groups) {
		return
	}
	for _, sh := range r.groups[shard].shippers {
		sh.Notify(0)
	}
}

// logChunk carries one SYNC reply through the generic callNode.
type logChunk struct {
	recs []wal.Record
	last uint64
}

// SyncLog proxies a log-suffix fetch to the shard's primary (the only
// node whose log is authoritative).
func (r *Router) SyncLog(shard int, from uint64) ([]wal.Record, uint64, error) {
	if shard < 0 || shard >= len(r.groups) {
		return nil, 0, fmt.Errorf("cluster: no such shard %d (have %d)", shard, len(r.groups))
	}
	g := r.groups[shard]
	chunk, err := callNode(r, g.primary(), func(c *crs.Client) (logChunk, error) {
		recs, last, err := c.SyncLog(shard, from)
		return logChunk{recs, last}, err
	})
	if err != nil {
		return nil, 0, err
	}
	return chunk.recs, chunk.last, nil
}

// nodeSink adapts one replica node to the shipper's Sink: Bootstrap
// reads the replica's wal.applied watermark over STATS (authoritative
// across replica restarts — a recovered replica reports how far its own
// log actually got), Apply lands one primary-sequenced record via REPL.
type nodeSink struct {
	r *Router
	n *node
}

func (s *nodeSink) Bootstrap() (uint64, error) {
	m, err := callNode(s.r, s.n, func(c *crs.Client) (map[string]int64, error) {
		return c.StatsWithTimeout(s.r.cfg.CallTimeout)
	})
	if err != nil {
		return 0, err
	}
	return uint64(m["wal.applied"]), nil
}

func (s *nodeSink) Apply(rec wal.Record) (uint64, error) {
	return callNode(s.r, s.n, func(c *crs.Client) (uint64, error) {
		return c.ReplWithTimeout(rec, s.r.cfg.CallTimeout)
	})
}

// StartReplication builds and starts one log shipper per replica (every
// non-primary node of every multi-node group). Idempotent; Close stops
// the shippers. Shippers dial lazily and absorb unreachable backends by
// retrying next round, so starting replication before the backends are
// up is fine.
func (r *Router) StartReplication() {
	r.replOnce.Do(func() {
		for _, g := range r.groups {
			for _, n := range g.nodes[1:] {
				sh := r.newShipper(g, n)
				g.shippers = append(g.shippers, sh)
				sh.Run()
			}
		}
	})
}

// CatchUpReplication synchronously drives every shipper until its
// replica holds every record the primary does — the deterministic
// variant of waiting out the ship interval. Requires StartReplication.
func (r *Router) CatchUpReplication() {
	for _, g := range r.groups {
		for _, sh := range g.shippers {
			sh.CatchUp()
		}
	}
}

func (r *Router) newShipper(g *group, n *node) *wal.Shipper {
	src := func(from uint64, max int) ([]wal.Record, uint64, error) {
		chunk, err := callNode(r, g.primary(), func(c *crs.Client) (logChunk, error) {
			recs, last, err := c.SyncLog(g.shard, from)
			return logChunk{recs, last}, err
		})
		if err != nil {
			return nil, 0, err
		}
		return chunk.recs, chunk.last, nil
	}
	maxLag := r.cfg.MaxLag
	return wal.NewShipper(src, &nodeSink{r: r, n: n}, wal.ShipperConfig{
		Interval: r.cfg.ShipInterval,
		Faults:   r.cfg.Faults,
		Metrics:  r.cfg.Metrics,
		Name:     n.addr,
		OnLag: func(applied, last uint64) {
			lag := uint64(0)
			if last > applied {
				lag = last - applied
			}
			n.lag.Store(lag)
			stale := lag > maxLag
			if n.stale.Swap(stale) != stale {
				if stale {
					r.met.stale.Add(1)
				} else {
					r.met.stale.Add(-1)
				}
			}
		},
	})
}
