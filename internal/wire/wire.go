// Package wire is the CRS line protocol: the one place that knows how a
// request line is split into a verb and typed arguments, how a reply is
// framed, and how a client reads it back. The backend (package crs) and
// the cluster front-end (package cluster) each register the verbs they
// serve in a Table and write their answers through a Reply; crs.Client
// sends with Conn.Call and reads counted bodies with Conn.Block or
// Conn.Body.
//
// Wire protocol (text, line-oriented; terms in Edinburgh syntax):
//
//	C: HELLO                    S: OK crs <session-id>
//	C: RETRIEVE <mode> <goal>   S: CANDIDATES <n>
//	                               <n> clause lines, each "C <clause>."
//	                               STATS mode=<m> total=<t> fs1=<a> fs2=<b>
//	C: EXPLAIN <mode> <goal>    S: EXPLAIN <n>
//	                               <n> lines, each "E <key> <value>"
//	C: BEGIN                    S: OK
//	C: ASSERT <clause>          S: OK
//	C: COMMIT                   S: OK
//	C: ABORT                    S: OK
//	C: WRITE assert <clause>    S: OK <seq>
//	C: WRITE retract <clause>   S: OK <seq>
//	C: SYNC <shard> <from-seq>  S: LOG <n> <last-seq>
//	                               <n> lines, each "R <seq> <op> <module> <clause>"
//	C: REPL <seq> <op> <module> <clause>
//	                            S: OK <applied-seq>
//	C: STATS                    S: STATS <n>
//	                               <n> lines, each "S <key> <value>"
//	C: FLIGHT [<n>]             S: FLIGHT <k>
//	                               <k> lines, each "F <json>" — the last k
//	                               flight-recorder records, oldest first
//	C: SLOWLOG [<n>]            S: SLOWLOG <k>
//	                               <k> lines, each "Q <json>" — the last k
//	                               slow-query captures, oldest first
//	C: QUIT                     S: BYE
//
// mode ∈ software|fs1|fs2|fs1+fs2|auto. Errors answer "ERR <message>".
// Verbs are case-insensitive; a verb the server did not register (REPL
// on the front-end) answers "ERR unknown command". STATS keys are
// served.<mode>, sessions, boards, qcache.{hits,misses,entries}, the
// board-health gauges boards.{free,leased,tripped,trips,readmits}, the
// fault-tolerance tallies degraded, retries and faults, engine.native
// (1 when the server runs the native vectorized engine, 0 for the
// cycle-accurate simulation), the durable write path's wal.* keys
// (wal.{enabled,seq,applied,segments,appends,fsyncs,faults,replicated,
// readonly}), the diagnosis layer's flight.{size,recorded} and
// slow.{captured,suppressed}, and — when an SLO is configured — the
// slo.* family (slo.enabled, the objective as slo.p99.us /
// slo.err.permille, lifetime slo.{requests,slow,errors,breaches,
// breach.active}, and per sliding window slo.window.{short,long}.
// {requests,slow,errors} with the burn rates scaled ×1000 as
// slo.burn.{short,long}.milli); values are decimal integers. FLIGHT and
// SLOWLOG bodies are single-line JSON objects (see
// telemetry.FlightRecord and telemetry.SlowCapture); with no recorder
// or log attached both answer an empty listing.
//
// Write path: ASSERT stages into a BEGIN…COMMIT transaction; WRITE is
// the autocommit form — one clause logged, applied and (per the fsync
// policy) durable before the assigned log sequence number returns. SYNC
// streams the write-ahead log's suffix from from-seq (the shard token
// is informational on a single-shard server) and REPL lands one
// primary-sequenced record on a replica, answering the replica's
// applied watermark: a duplicate acks without re-applying, a gap acks
// the current watermark without applying so the shipper rewinds. Record
// clauses are Edinburgh source without the final '.'.
//
// Trace context: a RETRIEVE or EXPLAIN goal may be followed by one
// trailing token " trace=<traceid>:<parentspan>" (after the goal's
// terminating '.'). A server that understands it threads the context
// into the retrieval's span tree and appends one extra reply line after
// the trailer:
//
//	TRACE <token>
//
// where token is the retrieval's span subtree serialized by
// telemetry.EncodeWireSpans ("-" when the server has no tracer). The
// header is strictly opt-in: old clients that send no header parse
// against this server exactly as before (no TRACE line is emitted), and
// a caller must not send the header to a server that predates it.
// EXPLAIN keys and values never contain spaces; the key order is the
// filter pipeline's and is part of the wire contract (appending new
// keys is compatible).
//
// Framing rule: a reply is buffered whole and flushed once, when its
// verb returns — never per line. A counted body may travel as one block:
// Reply.Block writes body lines that are already framed ("<tag>
// <text>\n" each — RETRIEVE's candidate lines, rendered from the stored
// words) and Conn.Block reads a counted body back as one string, checking
// the tag of every line, MaxLine and the exact count on the way, so a
// front-end forwards it with Reply.BlockString and never looks inside.
// Conn.Body is a per-line view of the same read.
package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// MaxLine bounds one protocol line in either direction. A longer line
// is answered with "ERR line too long" and the connection dropped.
const MaxLine = 4 * 1024 * 1024

// errPrefix starts every rejection line.
const errPrefix = "ERR "

// Acceptor tracks a server's connections for Serve and Shutdown. The
// zero value is ready to use.
type Acceptor struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup
	draining bool
}

// Serve accepts connections on l until it is closed, running handle on
// its own goroutine per connection. Serve returns after the listener
// closes and all handlers finish.
func (a *Acceptor) Serve(l net.Listener, handle func(net.Conn)) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			a.handlers.Wait()
			return err
		}
		a.mu.Lock()
		if a.draining {
			a.mu.Unlock()
			fmt.Fprintln(conn, errPrefix+"server shutting down")
			conn.Close()
			continue
		}
		if a.conns == nil {
			a.conns = make(map[net.Conn]struct{})
		}
		a.conns[conn] = struct{}{}
		a.handlers.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.handlers.Done()
			defer func() {
				a.mu.Lock()
				delete(a.conns, conn)
				a.mu.Unlock()
			}()
			handle(conn)
		}()
	}
}

// Shutdown drains the server: new connections are refused, and Shutdown
// returns once every in-flight handler has finished. If ctx expires
// first, the remaining connections are force-closed (an in-flight
// request still runs to completion; its client sees the connection
// drop) and ctx.Err() is returned. The caller should close its
// listeners first so Serve stops accepting.
func (a *Acceptor) Shutdown(ctx context.Context) error {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
	done := make(chan struct{})
	go func() {
		a.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		for c := range a.conns {
			c.Close()
		}
		a.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
