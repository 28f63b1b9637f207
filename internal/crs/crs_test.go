package crs

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/workload"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionRetrieve(t *testing.T) {
	s := newServer(t)
	sess := s.OpenSession()
	defer sess.Close()
	rt, err := sess.Retrieve(parse.MustTerm("married_couple(husband4, X)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	trueU, _, err := rt.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if trueU != 1 {
		t.Errorf("true unifiers = %d", trueU)
	}
	// Mode accounting.
	total := 0
	for _, n := range s.Served() {
		total += n
	}
	if total != 1 {
		t.Errorf("served = %v", s.Served())
	}
}

func TestModeSelectionPerQuery(t *testing.T) {
	s := newServer(t)
	sess := s.OpenSession()
	defer sess.Close()
	// Shared-variable query: heuristic must pick FS2.
	rt, err := sess.Retrieve(parse.MustTerm("married_couple(S, S)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Mode != core.ModeFS2 {
		t.Errorf("mode = %v, want fs2 for cross-bound query", rt.Mode)
	}
	// Pinned mode is honoured.
	m := core.ModeSoftware
	rt, err = sess.Retrieve(parse.MustTerm("married_couple(S, S)"), &m)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Mode != core.ModeSoftware {
		t.Errorf("pinned mode = %v", rt.Mode)
	}
}

func TestTransactionCommit(t *testing.T) {
	s := newServer(t)
	sess := s.OpenSession()
	defer sess.Close()

	if err := sess.Assert(parse.MustTerm("married_couple(new1, new2)"), term.Atom("true")); err != ErrNoTransaction {
		t.Errorf("assert outside tx = %v, want ErrNoTransaction", err)
	}
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Begin(); err != ErrInTransaction {
		t.Errorf("nested begin = %v", err)
	}
	if err := sess.Assert(parse.MustTerm("married_couple(romeo, juliet)"), term.Atom("true")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	rt, err := sess.Retrieve(parse.MustTerm("married_couple(romeo, X)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	trueU, _, _ := rt.Evaluate()
	if trueU != 1 {
		t.Errorf("committed clause not retrievable: %d", trueU)
	}
	if rt.Stats.TotalClauses != 31 {
		t.Errorf("clause count = %d, want 31", rt.Stats.TotalClauses)
	}
}

func TestTransactionAbort(t *testing.T) {
	s := newServer(t)
	sess := s.OpenSession()
	defer sess.Close()
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Assert(parse.MustTerm("married_couple(ghost, casper)"), term.Atom("true")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Abort(); err != nil {
		t.Fatal(err)
	}
	rt, err := sess.Retrieve(parse.MustTerm("married_couple(ghost, X)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if trueU, _, _ := rt.Evaluate(); trueU != 0 {
		t.Errorf("aborted clause visible: %d", trueU)
	}
}

func TestWriteLockBlocksUntilCommit(t *testing.T) {
	s := newServer(t)
	writer := s.OpenSession()
	defer writer.Close()
	reader := s.OpenSession()
	defer reader.Close()

	if err := writer.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Assert(parse.MustTerm("married_couple(locked, out)"), term.Atom("true")); err != nil {
		t.Fatal(err)
	}
	// The reader blocks on the predicate's write lock until commit.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := reader.Retrieve(parse.MustTerm("married_couple(husband1, X)"), nil); err != nil {
			t.Errorf("reader: %v", err)
		}
	}()
	select {
	case <-done:
		t.Fatal("reader finished while the write lock was held")
	default:
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestConcurrentReaders(t *testing.T) {
	s := newServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := s.OpenSession()
			defer sess.Close()
			g := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", i%20))
			rt, err := sess.Retrieve(g, nil)
			if err != nil {
				errs <- err
				return
			}
			if rt.Stats.TotalClauses != 30 {
				errs <- fmt.Errorf("total = %d", rt.Stats.TotalClauses)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Sessions() != 0 {
		t.Errorf("open sessions = %d after close", s.Sessions())
	}
}

func TestSessionCloseAbortsTransaction(t *testing.T) {
	s := newServer(t)
	sess := s.OpenSession()
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Assert(parse.MustTerm("married_couple(zzz, yyy)"), term.Atom("true")); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	// Lock must be free again.
	sess2 := s.OpenSession()
	defer sess2.Close()
	rt, err := sess2.Retrieve(parse.MustTerm("married_couple(zzz, X)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if trueU, _, _ := rt.Evaluate(); trueU != 0 {
		t.Error("clause from closed session's tx is visible")
	}
	if err := sess.Begin(); err != ErrClosed {
		t.Errorf("begin on closed session = %v", err)
	}
}

func TestParseMode(t *testing.T) {
	for word, want := range map[string]core.SearchMode{
		"software": core.ModeSoftware, "fs1": core.ModeFS1,
		"fs2": core.ModeFS2, "fs1+fs2": core.ModeFS1FS2,
	} {
		m, err := ParseMode(word)
		if err != nil || m == nil || *m != want {
			t.Errorf("ParseMode(%s) = %v, %v", word, m, err)
		}
	}
	if m, err := ParseMode("auto"); err != nil || m != nil {
		t.Errorf("ParseMode(auto) = %v, %v", m, err)
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("unknown mode should fail")
	}
}

// TestWireProtocol exercises the full TCP stack over loopback.
func TestWireProtocol(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.SessionID == "" {
		t.Error("no session id from handshake")
	}

	res, err := c.Retrieve("fs1+fs2", "married_couple(husband2, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) < 1 {
		t.Fatalf("no candidates: %+v", res)
	}
	foundTrue := false
	for _, cl := range res.Clauses {
		if strings.Contains(cl, "husband2") {
			foundTrue = true
		}
	}
	if !foundTrue {
		t.Errorf("true match missing from %v", res.Clauses)
	}
	if !strings.Contains(res.Stats, "mode=fs1+fs2") || !strings.Contains(res.Stats, "total=30") {
		t.Errorf("stats line = %q", res.Stats)
	}

	// Transaction over the wire.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Assert("married_couple(wirea, wireb)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Retrieve("auto", "married_couple(wirea, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) == 0 {
		t.Error("committed clause not retrievable over the wire")
	}

	// Error paths.
	if _, err := c.Retrieve("warp", "married_couple(a, b)"); err == nil {
		t.Error("bad mode should error")
	}
	if _, err := c.Retrieve("fs2", "unknown_pred(a)"); err == nil {
		t.Error("unknown predicate should error")
	}
	if err := c.Commit(); err == nil {
		t.Error("commit without begin should error")
	}
}

// TestWireProtocolMultipleClients checks concurrent wire sessions.
func TestWireProtocolMultipleClients(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			res, err := c.Retrieve("auto", fmt.Sprintf("married_couple(husband%d, X)", i))
			if err != nil {
				t.Errorf("retrieve: %v", err)
				return
			}
			if len(res.Clauses) == 0 {
				t.Errorf("client %d: no candidates", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestWireStats(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Retrieve("fs2", "married_couple(a, b)"); err != nil {
		t.Fatal(err)
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The wire counters must match the server's own served map exactly.
	for mode, n := range s.Served() {
		if kv["served."+mode.String()] != int64(n) {
			t.Errorf("served.%v = %d, want %d", mode, kv["served."+mode.String()], n)
		}
	}
	if kv["served.fs2"] != 1 {
		t.Errorf("served.fs2 = %d, want 1", kv["served.fs2"])
	}
	if kv["sessions"] != 1 {
		t.Errorf("sessions = %d, want 1", kv["sessions"])
	}
	if kv["qcache.misses"] < 1 {
		t.Errorf("qcache.misses = %d, want ≥1", kv["qcache.misses"])
	}
}

func TestClientAbortAndServerAccess(t *testing.T) {
	s := newServer(t)
	if s.Retriever() == nil {
		t.Error("Retriever() returned nil")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Assert("married_couple(ab1, ab2)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Retrieve("auto", "married_couple(ab1, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 0 {
		t.Errorf("aborted clause visible over the wire: %v", res.Clauses)
	}
	// Abort without begin errors.
	if err := c.Abort(); err == nil {
		t.Error("abort without begin should error")
	}
}

func TestLoadErrors(t *testing.T) {
	s := newServer(t)
	if err := s.Load("m", nil); err == nil {
		t.Error("empty load should fail")
	}
	if err := s.Load("m", []core.ClauseTerm{{Head: term.Int(3)}}); err == nil {
		t.Error("non-callable head should fail")
	}
}
