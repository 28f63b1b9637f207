package crs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/telemetry"
	"clare/internal/wire"
	"clare/internal/workload"
)

// startWire runs a server on loopback and returns its address. The
// listener closes on test cleanup.
func startWire(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// rawSession dials the wire protocol without the Client wrapper so tests
// can send malformed frames.
type rawSession struct {
	conn net.Conn
	in   *bufio.Scanner
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawSession{conn: conn, in: bufio.NewScanner(conn)}
	r.in.Buffer(make([]byte, 0, 64*1024), wire.MaxLine)
	return r
}

func (r *rawSession) sendRecv(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(r.conn, line); err != nil {
		t.Fatal(err)
	}
	if !r.in.Scan() {
		t.Fatalf("no reply to %q: %v", line, r.in.Err())
	}
	return r.in.Text()
}

// TestWireMalformedFrames: syntactically broken requests must be
// answered with ERR and must not kill the connection.
func TestWireMalformedFrames(t *testing.T) {
	s := newServer(t)
	r := rawDial(t, startWire(t, s))
	for _, tc := range []struct{ send, wantPrefix string }{
		{"RETRIEVE fs1", "ERR usage: RETRIEVE"},
		{"RETRIEVE warp married_couple(a, b).", "ERR crs: unknown mode"},
		{"RETRIEVE fs1 married_couple(((.", "ERR"},
		{"ASSERT )))", "ERR"},
		{"FROB twiddle", `ERR unknown command "FROB"`},
	} {
		got := r.sendRecv(t, tc.send)
		if !strings.HasPrefix(got, tc.wantPrefix) {
			t.Errorf("%q → %q, want prefix %q", tc.send, got, tc.wantPrefix)
		}
	}
	// The connection survives all of the above.
	if got := r.sendRecv(t, "HELLO"); !strings.HasPrefix(got, "OK crs") {
		t.Errorf("post-error HELLO → %q", got)
	}
}

// TestWireOversizedPayload: a line above wire.MaxLine draws "ERR line too
// long" and the server drops the connection.
func TestWireOversizedPayload(t *testing.T) {
	s := newServer(t)
	r := rawDial(t, startWire(t, s))
	if got := r.sendRecv(t, "HELLO"); !strings.HasPrefix(got, "OK") {
		t.Fatalf("handshake: %q", got)
	}
	// One token larger than the server's scanner limit, no newline needed:
	// the scanner errors as soon as its buffer fills.
	if _, err := r.conn.Write(bytes.Repeat([]byte{'a'}, wire.MaxLine+1)); err != nil {
		t.Fatal(err)
	}
	if !r.in.Scan() {
		t.Fatalf("no reply to oversized line: %v", r.in.Err())
	}
	if got := r.in.Text(); !strings.HasPrefix(got, "ERR line too long") {
		t.Errorf("oversized line → %q", got)
	}
	// The handler exits; the connection reads EOF.
	if r.in.Scan() {
		t.Errorf("unexpected line after drop: %q", r.in.Text())
	}
}

// TestServerShutdownGraceful: with no open connections Shutdown returns
// immediately; with a connected client it waits for the client to leave.
func TestServerShutdownGraceful(t *testing.T) {
	s := newServer(t)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Retrieve("fs1+fs2", "married_couple(husband1, X)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a connection was open")
	case <-time.After(50 * time.Millisecond):
	}
	c.Close()
	if err := <-done; err != nil {
		t.Errorf("graceful Shutdown = %v, want nil", err)
	}
	// While draining, new connections are refused.
	if _, err := Dial(addr); err == nil {
		t.Error("dial during drain should fail")
	}
}

// TestServerShutdownDeadline: a client that never leaves is force-closed
// when the context expires.
func TestServerShutdownDeadline(t *testing.T) {
	s := newServer(t)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if s.Sessions() != 0 {
		t.Errorf("open sessions after forced shutdown = %d", s.Sessions())
	}
}

// TestClientTimeout: a server that accepts but never answers must not
// hang a client with a deadline configured.
func TestClientTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never reply
		}
	}()
	start := time.Now()
	_, err = DialTimeout(l.Addr().String(), 100*time.Millisecond)
	if err == nil {
		t.Fatal("dial against a mute server should time out")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("error = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed out after %v, deadline not applied", elapsed)
	}
}

// TestServerMetrics: a server over an instrumented retriever mirrors its
// service counters into the registry.
func TestServerMetrics(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Metrics = telemetry.NewRegistry()
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	fam := workload.Family{Couples: 20, SameEvery: 4}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	sess := s.OpenSession()
	m := core.ModeFS2
	if _, err := sess.Retrieve(parse.MustTerm("married_couple(husband1, X)"), &m); err != nil {
		t.Fatal(err)
	}
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Abort(); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	var sb strings.Builder
	if err := cfg.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`clare_crs_requests_total{mode="fs2"} 1`,
		`clare_crs_predicate_requests_total{predicate="married_couple/2"} 1`,
		`clare_crs_sessions_total 1`,
		`clare_crs_sessions_open 0`,
		`clare_crs_transactions_total{op="begin"} 1`,
		`clare_crs_transactions_total{op="abort"} 1`,
		`clare_crs_lock_wait_seconds_count{op="read"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
