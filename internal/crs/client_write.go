package crs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"clare/internal/wal"
	"clare/internal/wire"
)

// Client write path. None of these calls goes through retryIdempotent:
// a write is NOT idempotent, and replaying one over a reconnect after a
// transport failure could apply it twice (the failure may have struck
// after the server logged the write but before the reply arrived). A
// transport error on a write therefore surfaces to the caller, who
// alone can decide whether to re-issue it.

// AssertNow appends one clause (source without final '.') outside any
// transaction — the WRITE wire command — returning the log sequence
// number the server assigned.
func (c *Client) AssertNow(clause string) (uint64, error) {
	return c.write("assert", clause)
}

// AssertWithTimeout is AssertNow under a per-call deadline override,
// mirroring RetrieveWithTimeout: every wire read/write of this one call
// is bounded by d instead of the client's global timeout (d <= 0 leaves
// the global timeout in force).
func (c *Client) AssertWithTimeout(clause string, d time.Duration) (uint64, error) {
	c.callTimeout = d // effTimeout ignores an override <= 0
	defer func() { c.callTimeout = 0 }()
	return c.AssertNow(clause)
}

// Retract removes the first clause unifying with the given clause
// (source without final '.'), returning the assigned log sequence
// number.
func (c *Client) Retract(clause string) (uint64, error) {
	return c.write("retract", clause)
}

// RetractWithTimeout is Retract under a per-call deadline override (see
// AssertWithTimeout).
func (c *Client) RetractWithTimeout(clause string, d time.Duration) (uint64, error) {
	c.callTimeout = d // effTimeout ignores an override <= 0
	defer func() { c.callTimeout = 0 }()
	return c.Retract(clause)
}

func (c *Client) write(op, clause string) (uint64, error) {
	return c.seqReply("WRITE", op, wire.Term(clause, nil))
}

// seqReply runs one request answered "OK <seq>".
func (c *Client) seqReply(verb string, args ...string) (uint64, error) {
	resp, err := c.roundTrip(verb, args...)
	if err != nil {
		return 0, err
	}
	seqText, ok := strings.CutPrefix(resp, "OK ")
	seq, err := strconv.ParseUint(seqText, 10, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("crs client: unexpected %s reply %q", verb, resp)
	}
	return seq, nil
}

// SyncLog pulls a suffix of the server's write-ahead log: up to the
// server's batch cap of records with seq >= from, plus the log's last
// seq. shard names the shard being synced (informational to a
// single-shard crsd, routing to a cluster front-end). Not retried: the
// caller (a follower loop) re-issues from its own watermark.
func (c *Client) SyncLog(shard int, from uint64) ([]wal.Record, uint64, error) {
	first, err := c.roundTrip("SYNC", strconv.Itoa(shard), strconv.FormatUint(from, 10))
	if err != nil {
		return nil, 0, err
	}
	var recs []wal.Record
	lastText, err := c.conn.Body(first, "LOG", "R", func(body string) error {
		rec, err := wal.ParseRecordText(body)
		recs = append(recs, rec)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	last, err := strconv.ParseUint(lastText, 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("crs client: unexpected LOG reply %q", first)
	}
	return recs, last, nil
}

// ReplWithTimeout is Repl under a per-call deadline override (see
// AssertWithTimeout).
func (c *Client) ReplWithTimeout(rec wal.Record, d time.Duration) (uint64, error) {
	c.callTimeout = d // effTimeout ignores an override <= 0
	defer func() { c.callTimeout = 0 }()
	return c.Repl(rec)
}

// Repl lands one primary-sequenced record on the server (the REPL wire
// command), returning the server's applied watermark afterwards — the
// push half of log shipping. Not retried; the shipper's rewind protocol
// handles every delivery ambiguity.
func (c *Client) Repl(rec wal.Record) (uint64, error) {
	return c.seqReply("REPL", rec.WireText())
}
