package crs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/fault"
	"clare/internal/workload"
)

// TestClientReconnectRetry: an idempotent request over a dead connection
// transparently redials, re-handshakes, and replays.
func TestClientReconnectRetry(t *testing.T) {
	addr := startWire(t, newServer(t))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RetryBackoff = time.Millisecond

	res, err := c.Retrieve("fs2", "married_couple(husband4, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) == 0 {
		t.Fatal("no candidates before the fault")
	}
	firstSess := c.SessionID

	// Sever the transport out from under the client.
	c.conn.Close()

	res, err = c.Retrieve("fs2", "married_couple(husband4, X)")
	if err != nil {
		t.Fatalf("retrieve after severed connection: %v", err)
	}
	if len(res.Clauses) == 0 {
		t.Fatal("no candidates after reconnect")
	}
	if c.SessionID == firstSess {
		t.Fatalf("session id %q unchanged: client did not reconnect", c.SessionID)
	}

	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after reconnect: %v", err)
	}
}

// TestClientServerErrorNotRetried: a protocol rejection surfaces as
// *ServerError immediately — the server already processed the request,
// so replaying it is wrong.
func TestClientServerErrorNotRetried(t *testing.T) {
	addr := startWire(t, newServer(t))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RetryBackoff = time.Millisecond
	sess := c.SessionID

	_, err = c.Retrieve("fs2", "no_such_predicate(X)")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T), want *ServerError", err, err)
	}
	if !strings.Contains(se.Msg, "unknown predicate") {
		t.Fatalf("unexpected server message %q", se.Msg)
	}
	if c.SessionID != sess {
		t.Fatal("client reconnected on a protocol error")
	}
}

// TestClientNoRetryInTransaction: between BEGIN and COMMIT/ABORT a
// transport failure must surface instead of silently reconnecting into
// a fresh session that has lost the staged writes.
func TestClientNoRetryInTransaction(t *testing.T) {
	addr := startWire(t, newServer(t))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RetryBackoff = time.Millisecond

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Assert("married_couple(hx, wx)"); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	if _, err := c.Retrieve("fs2", "married_couple(husband1, X)"); err == nil {
		t.Fatal("in-transaction retrieve over dead connection succeeded (silent reconnect)")
	}
	// The transaction is lost with the connection; Abort clears the
	// client-side flag even though the wire call fails...
	_ = c.Abort()
	// ...after which idempotent retry works again.
	if _, err := c.Retrieve("fs2", "married_couple(husband1, X)"); err != nil {
		t.Fatalf("retrieve after abandoning transaction: %v", err)
	}
}

// TestStatsFaultTallies: STATS carries the fault-tolerance tallies;
// under an injected index fault the degraded and fault counters move.
func TestStatsFaultTallies(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Faults = fault.New(3).Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 1})
	cfg.RetryBackoff = time.Microsecond
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(startWire(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Retrieve("fs1+fs2", "married_couple(husband4, X)"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"degraded", "retries", "faults"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("STATS missing key %q", key)
		}
	}
	if stats["degraded"] != 1 {
		t.Errorf("degraded = %d, want 1 (index fault forces the fs2 rung)", stats["degraded"])
	}
	if stats["faults"] == 0 {
		t.Error("faults = 0, want the injected index fault counted")
	}
}
