package crs

import (
	"bytes"
	"strings"
	"testing"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/workload"
)

// TestStatsLinesDeterministic: the STATS wire sequence must render the
// same keys in the same order on every call — crsctl -stats output is
// diffable across runs, and the cluster router's aggregation depends on
// stable key names.
func TestStatsLinesDeterministic(t *testing.T) {
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	a, b := s.Snapshot().lines(), s.Snapshot().lines()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lines() lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("key order unstable at %d: %q vs %q", i, a[i].Key, b[i].Key)
		}
		if strings.ContainsAny(a[i].Key, " \t") {
			t.Errorf("key %q contains whitespace", a[i].Key)
		}
	}
}

// TestServerAdopt: a server over a store-loaded retriever serves and
// mutates the adopted predicates exactly as if they had come through
// Load — the crsd -kb path.
func TestServerAdopt(t *testing.T) {
	// Build a store with one fact predicate and one rule predicate.
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := workload.Family{Couples: 12, SameEvery: 3}
	if _, err := r.AddClauses("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddClauses("flying", []core.ClauseTerm{
		{Head: parse.MustTerm("fly(tweety)")},
		{Head: parse.MustTerm("fly(X)"), Body: parse.MustTerm("bird(X)")},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SaveKB(&buf); err != nil {
		t.Fatal(err)
	}

	loaded, err := core.LoadRetriever(core.DefaultConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(loaded)
	if err := s.Adopt(); err != nil {
		t.Fatal(err)
	}

	sess := s.OpenSession()
	defer sess.Close()
	rt, err := sess.Retrieve(parse.MustTerm("married_couple(husband2, X)"), nil)
	if err != nil {
		t.Fatalf("retrieve adopted predicate: %v", err)
	}
	if trueU, _, err := rt.Evaluate(); err != nil || trueU != 1 {
		t.Errorf("adopted retrieval: true=%d err=%v, want 1 true unifier", trueU, err)
	}

	// The store is the only copy of an adopted predicate: assert into
	// one and check the commit is retrievable.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Assert(parse.MustTerm("fly(woodstock)"), nil); err != nil {
		t.Fatalf("assert into adopted predicate: %v", err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	rt, err = sess.Retrieve(parse.MustTerm("fly(woodstock)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two true unifiers: the new fact and the fly(X) rule head.
	if trueU, _, err := rt.Evaluate(); err != nil || trueU != 2 {
		t.Errorf("post-commit retrieval: true=%d err=%v, want 2", trueU, err)
	}

	// Adopt is idempotent and must not clobber live predicate state.
	if err := s.Adopt(); err != nil {
		t.Fatal(err)
	}
	rt, err = sess.Retrieve(parse.MustTerm("fly(X)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Candidates) != 3 {
		t.Errorf("candidates after re-adopt = %d, want 3", len(rt.Candidates))
	}
}
