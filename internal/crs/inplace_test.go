package crs

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/unify"
	"clare/internal/wal"
)

// clausesOf parses source clauses ("Head" or "Head :- Body").
func clausesOf(srcs ...string) []core.ClauseTerm {
	out := make([]core.ClauseTerm, len(srcs))
	for i, src := range srcs {
		out[i].Head, out[i].Body = splitClause(parse.MustTerm(src))
	}
	return out
}

// firstUnifier is the retract selection rule as it was written over a
// term list: the first clause jointly unifiable with head :- body.
func firstUnifier(clauses []core.ClauseTerm, head, body term.Term) int {
	want := clausePair(head, body)
	for i, cl := range clauses {
		if unify.Unifiable(want, term.Rename(clausePair(cl.Head, cl.Body))) {
			return i
		}
	}
	return -1
}

var genVar = regexp.MustCompile(`_G[0-9]+`)

// listing is the predicate of goal as the store holds it, one clause per
// line in user order.
func listing(t *testing.T, s *Server, goal string) string {
	t.Helper()
	sess := s.OpenSession()
	defer sess.Close()
	mode := core.ModeSoftware
	rt, err := sess.Retrieve(parse.MustTerm(goal), &mode)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.AppendCandidateLines(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	return genVar.ReplaceAllString(string(out), "_G")
}

func modelListing(clauses []core.ClauseTerm) string {
	var b strings.Builder
	for _, cl := range clauses {
		b.WriteString(renderClause(cl.Head, cl.Body))
		b.WriteString(".\n")
	}
	return genVar.ReplaceAllString(b.String(), "_G")
}

// TestRetractSelection: the clause a retract removes — found through the
// engine's candidates for the head — is the one the first-unifier rule
// picks over the clause list, on both engines; a retract that matches
// nothing, or would empty its predicate, is refused with nothing logged.
func TestRetractSelection(t *testing.T) {
	for _, engine := range []core.Engine{core.EngineSim, core.EngineNative} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Engine = engine
			r, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(r)
			model := clausesOf(
				"p(a, b)",
				"p(a, b)",
				"p(X, c) :- q(X)",
				"p(Y, Y)",
				"p(f(Z), Z) :- r(Z), s",
				"p(f(g), h)",
				"p(d, e)",
				"p(W, c)",
				"p(last, one)",
			)
			if err := s.Load("sel", model); err != nil {
				t.Fatal(err)
			}
			if err := s.Load("sel", clausesOf("solo(x)")); err != nil {
				t.Fatal(err)
			}
			l, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			s.AttachWAL(l)
			sess := s.OpenSession()
			defer sess.Close()

			listings := 0
			for _, c := range []struct {
				name, pattern string
				want          int // position in the list as it stands; -1 refused
			}{
				{"ground fact", "p(d, e)", 6},
				{"duplicates: the first goes", "p(a, b)", 0},
				{"duplicates: then the other", "p(a, b)", 0},
				{"FS1-blind shared variable", "p(V, V)", 1},
				{"variable pattern skips rules", "p(A, B)", 2},
				{"rule with body pattern", "p(A, c) :- q(B)", 0},
				{"rule body must unify too", "p(f(1), 1) :- r(1), s", 0},
				{"no match", "p(zz, zy)", -1},
				{"a rule is no fact", "p(A, c) :- q(A)", -1},
				{"a fact is no rule", "p(A, B) :- never", -1},
				{"variable pattern again", "p(A, B)", 0},
			} {
				head, body := splitClause(parse.MustTerm(c.pattern))
				if got := firstUnifier(model, head, body); got != c.want {
					t.Fatalf("%s: the case expects position %d, the first-unifier rule says %d", c.name, c.want, got)
				}
				before := l.LastSeq()
				seq, err := sess.RetractNow(head, body)
				if c.want < 0 {
					if err == nil {
						t.Fatalf("%s: retract %s succeeded", c.name, c.pattern)
					}
					if l.LastSeq() != before {
						t.Fatalf("%s: a refused retract was logged (seq %d -> %d)", c.name, before, l.LastSeq())
					}
				} else {
					if err != nil {
						t.Fatalf("%s: retract %s: %v", c.name, c.pattern, err)
					}
					if seq != before+1 {
						t.Fatalf("%s: seq %d after %d", c.name, seq, before)
					}
					model = slices.Delete(model, c.want, c.want+1)
				}
				listings++
				if got, want := listing(t, s, "p(A, B)"), modelListing(model); got != want {
					t.Fatalf("%s: store holds\n%swant\n%s", c.name, got, want)
				}
			}
			if len(model) != 1 {
				t.Fatalf("the cases leave %d clauses, want 1", len(model))
			}

			// A predicate's last clause stays.
			before := l.LastSeq()
			for _, pattern := range []string{"solo(x)", "p(A, B) :- C"} {
				head, body := splitClause(parse.MustTerm(pattern))
				if _, err := sess.RetractNow(head, body); err == nil || !strings.Contains(err.Error(), "would empty") {
					t.Fatalf("retracting the last clause with %s: %v", pattern, err)
				}
			}
			if l.LastSeq() != before {
				t.Fatal("a refused last-clause retract was logged")
			}
			// The lookups behind the retracts were not served retrievals.
			total := 0
			for _, n := range s.Served() {
				total += n
			}
			if total != listings {
				t.Fatalf("%d retrievals served for %d listings: retract lookups were counted", total, listings)
			}
		})
	}
}

// unstorable are clauses the compiled file refuses: a record past the
// 512-byte result-memory slot, more variables than the TUE has slots, an
// integer outside the 28-bit in-line range.
func unstorable(functor string) []term.Term {
	long := make([]term.Term, 200)
	vars := make([]term.Term, 300)
	for i := range long {
		long[i] = term.Atom(fmt.Sprintf("element%d", i))
	}
	for i := range vars {
		vars[i] = term.NewVar(fmt.Sprintf("V%d", i))
	}
	return []term.Term{
		term.New(functor, term.Atom("h"), term.List(long...)),
		term.New(functor, term.Atom("h"), term.List(vars...)),
		term.New(functor, term.Atom("h"), term.Int(1<<30)),
	}
}

// TestUnappliableWriteNeverLogged: a clause the store cannot hold is
// refused before the log sees it — as an autocommit write and inside a
// multi-predicate transaction, where nothing of the batch is logged or
// applied — so the log never holds a record recovery would fail on.
func TestUnappliableWriteNeverLogged(t *testing.T) {
	dir := t.TempDir()
	s := newWALServer(t, dir)
	if err := s.Load("other", clausesOf("other(a, b)")); err != nil {
		t.Fatal(err)
	}
	sess := s.OpenSession()
	before := listing(t, s, "married_couple(A, B)")
	for _, head := range unstorable("married_couple") {
		if _, err := sess.AssertNow(head, nil); err == nil {
			t.Fatalf("assert of an unstorable clause (%.40v…) succeeded", head)
		}
		if got := s.WAL().LastSeq(); got != 0 {
			t.Fatalf("refused assert was logged: LastSeq = %d", got)
		}
	}
	for _, head := range unstorable("other") {
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Assert(parse.MustTerm("married_couple(txh, txw)"), nil); err != nil {
			t.Fatal(err)
		}
		if err := sess.Assert(head, nil); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit(); err == nil {
			t.Fatalf("commit holding an unstorable clause (%.40v…) succeeded", head)
		}
		if got := s.WAL().LastSeq(); got != 0 {
			t.Fatalf("part of a refused commit was logged: LastSeq = %d", got)
		}
	}
	if got := listing(t, s, "married_couple(A, B)"); got != before {
		t.Fatal("a refused write changed the store")
	}
	// The failed commits released their locks, and the log is usable.
	seq, err := sess.AssertNow(parse.MustTerm("married_couple(good, one)"), nil)
	if err != nil || seq != 1 {
		t.Fatalf("write after the refusals: seq %d, %v", seq, err)
	}
	sess.Close()
	if err := s.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newWALServer(t, dir) // fails the test if Recover does
	if got := s2.AppliedSeq(); got != 1 {
		t.Fatalf("recovered AppliedSeq = %d, want 1", got)
	}
	if n := countCandidates(t, s2, "married_couple(good, X)"); n != 1 {
		t.Fatalf("recovered store has %d candidates for the one logged write", n)
	}
}

// TestWritesRaceReaders runs one writer asserting and retracting in place
// against readers on RETRIEVE (rendering their candidates after the read
// lock is gone, as the wire handler does) and EXPLAIN, whose profile
// re-sweeps the predicate under its read lock. Under -race this is the
// proof that nothing reads a compiled file while a write changes it.
func TestWritesRaceReaders(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	if err := s.Load("family", clausesOf(
		"married_couple(husband1, wife1)",
		"married_couple(husband2, wife2)",
		"married_couple(husband3, wife3)",
		"married_couple(X, X) :- narcissist(X)",
		"married_couple(husband4, wife4)",
	)); err != nil {
		t.Fatal(err)
	}

	const writes, readers, reads = 300, 3, 150
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := s.OpenSession()
		defer sess.Close()
		var pending []term.Term
		for i := 0; i < writes; i++ {
			cl := parse.MustTerm(fmt.Sprintf("married_couple(w%d, v%d)", i, i))
			if i%5 == 4 {
				cl = parse.MustTerm(fmt.Sprintf("married_couple(w%d, Any)", i))
			}
			if _, err := sess.AssertNow(cl, nil); err != nil {
				errs <- err
				return
			}
			if pending = append(pending, cl); len(pending) > 4 {
				if _, err := sess.RetractNow(pending[0], nil); err != nil {
					errs <- err
					return
				}
				pending = pending[1:]
			}
		}
	}()
	goals := []string{"married_couple(husband3, X)", "married_couple(S, S)", "married_couple(A, B)"}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.OpenSession()
			defer sess.Close()
			mode := core.ModeFS1FS2
			for i := 0; i < reads; i++ {
				goal := parse.MustTerm(goals[(w+i)%len(goals)])
				rt, err := sess.Retrieve(goal, &mode)
				if err != nil {
					errs <- err
					return
				}
				out, err := rt.AppendCandidateLines(nil, "C ")
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(string(out), "narcissist") {
					errs <- fmt.Errorf("%v: the rule every goal matches is missing from\n%s", goal, out)
					return
				}
				p, err := sess.Explain(goal, &mode, nil)
				if err != nil {
					errs <- err
					return
				}
				if p.Unified < 1 || p.Unified > p.Stats.AfterFS2 {
					errs <- fmt.Errorf("%v: %d unified of %d candidates", goal, p.Unified, p.Stats.AfterFS2)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := listing(t, s, "married_couple(A, B)"), 5+4; strings.Count(got, "\n") != want {
		t.Errorf("store ends with %d clauses, want %d:\n%s", strings.Count(got, "\n"), want, got)
	}
}
