package crs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"clare/internal/core"
	"clare/internal/telemetry"
	"clare/internal/wire"
)

// DefaultTimeout bounds the dial and each wire read/write when Dial is
// used. Generous: a retrieval behind it may queue for a board.
const DefaultTimeout = 30 * time.Second

// Client retry defaults: transport failures on idempotent requests are
// retried over a fresh connection up to DefaultMaxRetries times, with
// DefaultRetryBackoff doubling between attempts.
const (
	DefaultMaxRetries   = 2
	DefaultRetryBackoff = 50 * time.Millisecond
)

// ServerError is a protocol-level rejection (see wire.ServerError).
type ServerError = wire.ServerError

// Client is a CRS wire-protocol client. Idempotent requests (RETRIEVE,
// STATS) survive transport failures: the client reconnects with
// exponential backoff and replays the request, up to MaxRetries times.
// Protocol rejections (ServerError) and transaction commands are never
// retried — a reconnect opens a fresh session, so any staged
// transaction state is gone and the caller must re-run the transaction.
type Client struct {
	// addr is the dialed address, kept for reconnects.
	addr string
	conn *wire.Conn
	// timeout bounds each wire read and write (0 = no deadline).
	timeout time.Duration
	// callTimeout, when > 0, overrides timeout for the duration of one
	// call (RetrieveWithTimeout/StatsWithTimeout) — including any dial
	// performed by a transparent reconnect within that call.
	callTimeout time.Duration
	// inTx is set between a successful BEGIN and the next COMMIT/ABORT;
	// while set, automatic reconnect-and-retry is disabled.
	inTx bool
	// SessionID is assigned by HELLO (and refreshed on reconnect).
	SessionID string

	// MaxRetries bounds transparent reconnect+retry attempts per
	// idempotent request (0 uses DefaultMaxRetries; negative disables).
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubled per
	// attempt (0 uses DefaultRetryBackoff).
	RetryBackoff time.Duration
}

// Dial connects to a CRS server with DefaultTimeout and performs the
// HELLO handshake.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultTimeout)
}

// DialTimeout is Dial with an explicit per-operation timeout. The
// timeout bounds the TCP connect and every subsequent wire read and
// write (each operation gets a fresh deadline); <= 0 disables
// deadlines entirely.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, timeout: timeout}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re)establishes the TCP connection and performs the HELLO
// handshake, replacing any previous connection state.
func (c *Client) connect() error {
	dialTO := c.effTimeout()
	if dialTO < 0 {
		dialTO = 0
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTO)
	if err != nil {
		return err
	}
	c.conn = wire.NewConn(conn)
	line, err := c.roundTrip("HELLO")
	if err != nil {
		conn.Close()
		return err
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "OK" {
		conn.Close()
		return fmt.Errorf("crs client: bad handshake %q", line)
	}
	c.SessionID = fields[2]
	return nil
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

func (c *Client) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return c.RetryBackoff
}

// retryIdempotent runs op, transparently reconnecting and replaying it
// on transport failures. ServerError replies pass through immediately,
// and nothing is retried inside a transaction (the reconnect would
// silently discard the staged state).
func retryIdempotent[T any](c *Client, op func() (T, error)) (T, error) {
	backoff := c.retryBackoff()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			c.conn.Close()
			if err := c.connect(); err != nil {
				if attempt >= c.maxRetries() {
					var zero T
					return zero, err
				}
				continue
			}
		}
		res, err := op()
		var se *ServerError
		if err == nil || errors.As(err, &se) || c.inTx || attempt >= c.maxRetries() {
			return res, err
		}
	}
}

// SetTimeout adjusts the per-operation deadline for subsequent calls
// (<= 0 disables deadlines).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// effTimeout is the deadline in force for the current operation: the
// per-call override when one is active, the global timeout otherwise.
func (c *Client) effTimeout() time.Duration {
	if c.callTimeout > 0 {
		return c.callTimeout
	}
	return c.timeout
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	_, _ = c.roundTrip("QUIT")
	return c.conn.Close()
}

// Sever drops the connection without the QUIT handshake. Close waits
// for the server's goodbye, which deadlocks a caller cancelling an
// in-flight request — the goodbye queues behind the very reply being
// abandoned. Sever fails the pending read immediately instead; the
// connection is unusable afterwards.
func (c *Client) Sever() error { return c.conn.Close() }

// roundTrip sends one request under the deadline in force for the
// current operation and returns the first reply line.
func (c *Client) roundTrip(verb string, args ...string) (string, error) {
	c.conn.Timeout = c.effTimeout()
	return c.conn.Call(verb, args...)
}

// RetrieveResult is a client-side view of one retrieval.
type RetrieveResult struct {
	// Clauses are the candidate clauses in source form (with final '.'):
	// substrings of Body.
	Clauses []string
	// Body is the reply's candidate lines as they were framed on the
	// wire, "C <clause>\n" each — what a front-end forwards without
	// looking inside.
	Body string
	// Stats is the raw STATS line.
	Stats string
	// Spans is the server-side span subtree, decoded from the TRACE
	// reply line. Populated only for traced calls (RetrieveTraced with a
	// non-nil context) against a server with a tracer.
	Spans []telemetry.WireSpan
}

// RetrieveWithTimeout is Retrieve under a per-call deadline override:
// every wire read/write (and any reconnect dial) of this one call is
// bounded by d instead of the client's global timeout. d <= 0 leaves
// the global timeout in force. The cluster router uses this to hold a
// per-shard budget tighter than the connection-wide SetTimeout.
func (c *Client) RetrieveWithTimeout(mode, goal string, d time.Duration) (*RetrieveResult, error) {
	return c.RetrieveTracedWithTimeout(mode, goal, nil, d)
}

// RetrieveTracedWithTimeout is RetrieveTraced under a per-call deadline
// override (see RetrieveWithTimeout).
func (c *Client) RetrieveTracedWithTimeout(mode, goal string, tc *telemetry.TraceContext, d time.Duration) (*RetrieveResult, error) {
	c.callTimeout = d // effTimeout ignores an override <= 0
	defer func() { c.callTimeout = 0 }()
	return c.RetrieveTraced(mode, goal, tc)
}

// Retrieve runs a retrieval. mode is one of software|fs1|fs2|fs1+fs2|auto;
// goal is Edinburgh source without the final '.'. Retrieve is
// idempotent: on a transport failure the client reconnects with backoff
// and replays the request (see Client).
func (c *Client) Retrieve(mode, goal string) (*RetrieveResult, error) {
	return c.RetrieveTraced(mode, goal, nil)
}

// RetrieveTraced is Retrieve carrying a trace context: the request line
// gains the " trace=<id>:<span>" header, and the server's span subtree
// comes back decoded in RetrieveResult.Spans for the caller to graft
// under its own span. Only send a context to servers that understand
// the header (a server predating it rejects the goal). tc nil is plain
// Retrieve.
func (c *Client) RetrieveTraced(mode, goal string, tc *telemetry.TraceContext) (*RetrieveResult, error) {
	return retryIdempotent(c, func() (*RetrieveResult, error) { return c.retrieveOnce(mode, goal, tc) })
}

func (c *Client) retrieveOnce(mode, goal string, tc *telemetry.TraceContext) (*RetrieveResult, error) {
	first, err := c.roundTrip("RETRIEVE", mode, wire.Term(goal, tc))
	if err != nil {
		return nil, err
	}
	body, n, _, err := c.conn.Block(first, "CANDIDATES", "C")
	if err != nil {
		return nil, err
	}
	res := &RetrieveResult{Clauses: make([]string, 0, n), Body: body}
	_ = wire.Lines(body, "C", func(clause string) error { // cannot fail: the callback never does
		res.Clauses = append(res.Clauses, clause)
		return nil
	})
	if res.Stats, err = c.conn.Line(); err != nil {
		return nil, err
	}
	if tc != nil {
		if res.Spans, err = c.conn.Trace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExplainResult is a client-side view of one EXPLAIN call.
type ExplainResult struct {
	// Entries is the profile in the server's (pipeline) order.
	Entries []core.ExplainEntry
	// Spans is the server-side span subtree (traced calls only).
	Spans []telemetry.WireSpan
}

// Get returns the value for key ("" when absent).
func (e *ExplainResult) Get(key string) string {
	for _, kv := range e.Entries {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// Explain profiles one retrieval (the EXPLAIN wire command): candidate
// counts and rejection ratios per filter rung plus per-stage times.
// Idempotent and retried like Retrieve.
func (c *Client) Explain(mode, goal string) (*ExplainResult, error) {
	return c.ExplainTraced(mode, goal, nil)
}

// ExplainTraced is Explain carrying a trace context (see RetrieveTraced).
func (c *Client) ExplainTraced(mode, goal string, tc *telemetry.TraceContext) (*ExplainResult, error) {
	return retryIdempotent(c, func() (*ExplainResult, error) { return c.explainOnce(mode, goal, tc) })
}

// ExplainTracedWithTimeout is ExplainTraced under a per-call deadline
// override (see RetrieveWithTimeout).
func (c *Client) ExplainTracedWithTimeout(mode, goal string, tc *telemetry.TraceContext, d time.Duration) (*ExplainResult, error) {
	c.callTimeout = d // effTimeout ignores an override <= 0
	defer func() { c.callTimeout = 0 }()
	return c.ExplainTraced(mode, goal, tc)
}

func (c *Client) explainOnce(mode, goal string, tc *telemetry.TraceContext) (*ExplainResult, error) {
	first, err := c.roundTrip("EXPLAIN", mode, wire.Term(goal, tc))
	if err != nil {
		return nil, err
	}
	res := &ExplainResult{}
	if _, err := c.conn.Body(first, "EXPLAIN", "E", func(kv string) error {
		key, value, ok := strings.Cut(kv, " ")
		if !ok {
			return errors.New("want <key> <value>")
		}
		res.Entries = append(res.Entries, core.ExplainEntry{Key: key, Value: value})
		return nil
	}); err != nil {
		return nil, err
	}
	if tc != nil {
		if res.Spans, err = c.conn.Trace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StatsWithTimeout is Stats under a per-call deadline override, with
// the same semantics as RetrieveWithTimeout.
func (c *Client) StatsWithTimeout(d time.Duration) (map[string]int64, error) {
	c.callTimeout = d // effTimeout ignores an override <= 0
	defer func() { c.callTimeout = 0 }()
	return c.Stats()
}

// Stats asks the server for its service counters: served.<mode>,
// sessions, qcache.{hits,misses,entries}, the fault-tolerance tallies,
// engine.native and the rest of the keys the wire-protocol comment in
// package wire lists. Stats is idempotent and retried like Retrieve.
func (c *Client) Stats() (map[string]int64, error) {
	return retryIdempotent(c, c.statsOnce)
}

func (c *Client) statsOnce() (map[string]int64, error) {
	first, err := c.roundTrip("STATS")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	if _, err := c.conn.Body(first, "STATS", "S", func(kv string) error {
		key, value, _ := strings.Cut(kv, " ")
		v, err := strconv.ParseInt(value, 10, 64)
		out[key] = v
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Flight pulls the last n flight-recorder records (n <= 0 = the whole
// ring), oldest first. Idempotent and retried like Stats.
func (c *Client) Flight(n int) ([]telemetry.FlightRecord, error) {
	return retryIdempotent(c, func() ([]telemetry.FlightRecord, error) {
		return dumpOnce[telemetry.FlightRecord](c, "FLIGHT", "F", n)
	})
}

// SlowTail pulls the last n slow-query captures (n <= 0 = everything
// the log holds), oldest first. Idempotent and retried like Stats.
func (c *Client) SlowTail(n int) ([]telemetry.SlowCapture, error) {
	return retryIdempotent(c, func() ([]telemetry.SlowCapture, error) {
		return dumpOnce[telemetry.SlowCapture](c, "SLOWLOG", "Q", n)
	})
}

// dumpOnce runs one "<verb> [n]" → "<verb> <k>" + k "<tag> <json>"
// exchange, decoding each body line into T.
func dumpOnce[T any](c *Client, verb, tag string, n int) ([]T, error) {
	var args []string
	if n > 0 {
		args = []string{strconv.Itoa(n)}
	}
	first, err := c.roundTrip(verb, args...)
	if err != nil {
		return nil, err
	}
	out := []T{}
	if _, err := c.conn.Body(first, verb, tag, func(body string) error {
		var rec T
		err := json.Unmarshal([]byte(body), &rec)
		out = append(out, rec)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Begin starts a transaction. Until the matching Commit or Abort, the
// client suspends automatic reconnect-and-retry: staged transaction
// state lives in the server session, which a reconnect would discard.
func (c *Client) Begin() error {
	if err := c.simple("BEGIN"); err != nil {
		return err
	}
	c.inTx = true
	return nil
}

// Assert stages a clause (source without final '.').
func (c *Client) Assert(clause string) error {
	return c.simple("ASSERT", wire.Term(clause, nil))
}

// Commit commits the transaction.
func (c *Client) Commit() error {
	err := c.simple("COMMIT")
	c.inTx = false
	return err
}

// Abort aborts the transaction.
func (c *Client) Abort() error {
	err := c.simple("ABORT")
	c.inTx = false
	return err
}

func (c *Client) simple(verb string, args ...string) error {
	resp, err := c.roundTrip(verb, args...)
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("crs client: unexpected reply %q", resp)
	}
	return nil
}
