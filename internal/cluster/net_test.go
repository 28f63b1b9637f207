package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/term"
)

// startFront boots the cluster wire front-end over a fresh router.
func startFront(t *testing.T, addrs [][]string) (*Server, string) {
	t.Helper()
	r := newTestRouter(t, addrs, nil)
	s := NewServer(r)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })
	return s, l.Addr().String()
}

// TestWireTransparent: the stock crs.Client speaks to the cluster
// front-end without knowing it is one — the protocol is unchanged.
func TestWireTransparent(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 1, preds)
	_, addr := startFront(t, tc.addrs)
	c, err := crs.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, p := range preds[:3] {
		res, err := c.Retrieve("auto", p.name+"(X, Y)")
		if err != nil {
			t.Fatalf("retrieve %s through front-end: %v", p.name, err)
		}
		if len(res.Clauses) != len(p.clauses) {
			t.Errorf("%s: %d clauses, want %d", p.name, len(res.Clauses), len(p.clauses))
		}
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["cluster.shards"] != 2 {
		t.Errorf("cluster.shards = %d, want 2", kv["cluster.shards"])
	}
	if kv["cluster.requests"] != 3 {
		t.Errorf("cluster.requests = %d, want 3", kv["cluster.requests"])
	}

	// The front-end serves every verb but REPL; a verb neither server
	// registers is rejected the same way.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewReader(conn)
	for _, step := range []struct{ send, want string }{
		{"REPL 1 assert m m(1)", `ERR unknown command "REPL"`},
		{"SLOWLOG 1", `ERR unknown command "SLOWLOG"`},
		{"HELLO", "OK crs"},
	} {
		fmt.Fprintf(conn, "%s\n", step.send)
		got, err := in.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(got, step.want) {
			t.Errorf("%q → %q, want prefix %q", step.send, got, step.want)
		}
	}
}

// TestWireStatsSorted: the front-end renders STATS keys in sorted order
// so crsctl output is deterministic cluster-wide.
func TestWireStatsSorted(t *testing.T) {
	tc := startCluster(t, 2, 1, testPreds())
	_, addr := startFront(t, tc.addrs)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewScanner(conn)
	fmt.Fprintln(conn, "STATS")
	if !in.Scan() {
		t.Fatalf("no STATS header: %v", in.Err())
	}
	var n int
	if _, err := fmt.Sscanf(in.Text(), "STATS %d", &n); err != nil {
		t.Fatalf("bad STATS header %q: %v", in.Text(), err)
	}
	var keys []string
	for i := 0; i < n; i++ {
		if !in.Scan() {
			t.Fatalf("stats truncated after %d of %d lines", i, n)
		}
		parts := strings.Fields(in.Text())
		if len(parts) != 3 || parts[0] != "S" {
			t.Fatalf("bad stats line %q", in.Text())
		}
		keys = append(keys, parts[1])
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("stats keys not sorted: %q after %q", keys[i], keys[i-1])
		}
	}
	found := false
	for _, k := range keys {
		if k == "cluster.failovers" {
			found = true
		}
	}
	if !found {
		t.Errorf("stats missing cluster.failovers (keys %v)", keys)
	}
}

// TestWireTransactionSameShard: a transaction whose asserts all land on
// one shard passes through and its commit is visible to retrieval.
func TestWireTransactionSameShard(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 1, preds)
	_, addr := startFront(t, tc.addrs)
	c, err := crs.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := predOnShard(t, preds, 2, 0)
	before, err := c.Retrieve("auto", p.name+"(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Assert(p.name + "(extra, extra)"); err != nil {
		t.Fatalf("assert: %v", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	after, err := c.Retrieve("auto", p.name+"(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Clauses) != len(before.Clauses)+1 {
		t.Errorf("clauses after commit = %d, want %d", len(after.Clauses), len(before.Clauses)+1)
	}
}

// TestWireTransactionCrossShardRejected: the second ASSERT naming a
// predicate on a different shard is refused — there is no distributed
// commit.
func TestWireTransactionCrossShardRejected(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 1, preds)
	_, addr := startFront(t, tc.addrs)
	c, err := crs.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p0 := predOnShard(t, preds, 2, 0)
	p1 := predOnShard(t, preds, 2, 1)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Assert(p0.name + "(a, b)"); err != nil {
		t.Fatalf("first assert: %v", err)
	}
	err = c.Assert(p1.name + "(a, b)")
	var se *crs.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "cross-shard") {
		t.Fatalf("cross-shard assert = %v, want cross-shard rejection", err)
	}
	// The transaction survives the rejection and can still abort cleanly.
	if err := c.Abort(); err != nil {
		t.Errorf("abort after rejection: %v", err)
	}
}

// TestWireEmptyTransaction: BEGIN/COMMIT with no asserts is a no-op OK.
func TestWireEmptyTransaction(t *testing.T) {
	tc := startCluster(t, 2, 1, testPreds())
	_, addr := startFront(t, tc.addrs)
	c, err := crs.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Errorf("empty commit: %v", err)
	}
}

// TestFrontendShutdown: Shutdown drains — an idle connected client is
// closed at once rather than holding the drain, and new dials are
// refused.
func TestFrontendShutdown(t *testing.T) {
	tc := startCluster(t, 2, 1, testPreds())
	s, addr := startFront(t, tc.addrs)
	c, err := crs.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Retrieve("auto", testPreds()[0].name+"(X, Y)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v after %v, want nil: the idle client held the drain", err, time.Since(start))
	}
	if _, err := crs.Dial(addr); err == nil {
		t.Error("dial during drain should fail")
	}
}

// rawRetrieve sends one RETRIEVE line to addr on a bare socket and
// returns the reply as it came: header, body lines, trailer.
func rawRetrieve(t *testing.T, addr, mode, goal string) (header, body, trailer string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewReader(conn)
	fmt.Fprintf(conn, "RETRIEVE %s %s.\n", mode, goal)
	line := func() string {
		s, err := in.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply from %s: %v", addr, err)
		}
		return s
	}
	header = line()
	var n int
	if _, err := fmt.Sscanf(header, "CANDIDATES %d", &n); err != nil {
		t.Fatalf("bad header %q: %v", header, err)
	}
	for i := 0; i < n; i++ {
		body += line()
	}
	return header, body, line()
}

// TestRetrieveBytesThroughFront: the front-end forwards a backend's
// candidate lines as bytes. Routed to one shard, the whole reply is the
// backend's own; fanned out, the body is the shards' bodies in shard
// order under a summed header and trailer.
func TestRetrieveBytesThroughFront(t *testing.T) {
	x := term.NewVar("X")
	mixed := func(name string, n int) testPred {
		p := facts(name, n)
		p.clauses = append(p.clauses,
			core.ClauseTerm{Head: term.New(name, x, term.Atom("a rule")), Body: term.New(",", term.New("aux", x, term.Int(-7)), term.Atom("!"))},
			core.ClauseTerm{Head: term.New(name, term.List(term.Float(2), x), term.Atom("Q"))})
		return p
	}
	_, l0 := startBackend(t, []testPred{mixed("dup", 3), mixed("only0", 40)})
	_, l1 := startBackend(t, []testPred{mixed("dup", 5)})
	a0, a1 := l0.Addr().String(), l1.Addr().String()

	_, single := startFront(t, [][]string{{a0}})
	for _, mode := range []string{"fs1+fs2", "software"} {
		h, b, tr := rawRetrieve(t, a0, mode, "only0(X, Y)")
		fh, fb, ftr := rawRetrieve(t, single, mode, "only0(X, Y)")
		if h != "CANDIDATES 42\n" || !strings.Contains(b, "C only0(X,'a rule') :- (aux(X,-7),!).\n") {
			t.Fatalf("%s: backend replied %q %q", mode, h, b)
		}
		if fh+fb+ftr != h+b+tr {
			t.Errorf("%s through one shard:\n%s%s%swant the backend's own\n%s%s%s", mode, fh, fb, ftr, h, b, tr)
		}
	}

	_, both := startFront(t, [][]string{{a0}, {a1}})
	_, b0, _ := rawRetrieve(t, a0, "software", "dup(X, Y)")
	_, b1, _ := rawRetrieve(t, a1, "software", "dup(X, Y)")
	h, b, tr := rawRetrieve(t, both, "software", "dup(X, Y)")
	if h != "CANDIDATES 12\n" || b != b0+b1 {
		t.Errorf("fan-out replied %q\n%swant the shard-order concatenation\n%s%s", h, b, b0, b1)
	}
	if want := "STATS mode=software total=12 fs1=12 fs2=12\n"; tr != want {
		t.Errorf("fan-out trailer %q, want %q", tr, want)
	}
}
