package crs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/workload"
)

// newFamilyServer builds a server over a sim retriever loaded with the
// family workload.
func newFamilyServer(t *testing.T) *Server {
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

// TestConcurrentSessions mixes parallel loads, retrievals and
// transactions across many sessions. It asserts every operation
// succeeds, the served counter matches the retrievals issued, and —
// under -race — that the reworked locking is memory-safe.
func TestConcurrentSessions(t *testing.T) {
	s := newFamilyServer(t)

	const (
		readers    = 8
		loaders    = 4
		writers    = 2
		iterations = 15
	)
	var issued atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers+loaders+writers)

	// Readers hammer the preloaded predicate.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.OpenSession()
			defer sess.Close()
			for i := 0; i < iterations; i++ {
				goal := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", (w+i)%30))
				rt, err := sess.Retrieve(goal, nil)
				if err != nil {
					errs <- err
					return
				}
				issued.Add(1)
				trueU, _, err := rt.Evaluate()
				if err != nil {
					errs <- err
					return
				}
				if trueU != 1 {
					errs <- fmt.Errorf("%v: true unifiers = %d, want 1", goal, trueU)
					return
				}
			}
		}(w)
	}

	// Loaders install fresh predicates and immediately query them.
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.OpenSession()
			defer sess.Close()
			for i := 0; i < iterations; i++ {
				functor := fmt.Sprintf("loader%d_%d", w, i)
				clauses := []core.ClauseTerm{
					{Head: term.New(functor, term.Atom("a"), term.Atom("b"))},
					{Head: term.New(functor, term.Atom("c"), term.Atom("d"))},
				}
				if err := s.Load("dyn", clauses); err != nil {
					errs <- err
					return
				}
				rt, err := sess.Retrieve(term.New(functor, term.Atom("a"), term.NewVar("X")), nil)
				if err != nil {
					errs <- err
					return
				}
				issued.Add(1)
				if len(rt.Candidates) == 0 {
					errs <- fmt.Errorf("%s: no candidates after load", functor)
					return
				}
			}
		}(w)
	}

	// Writers run assert transactions on private predicates, mixing
	// commits and aborts.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.OpenSession()
			defer sess.Close()
			functor := fmt.Sprintf("journal%d", w)
			seed := []core.ClauseTerm{{Head: term.New(functor, term.Atom("entry0"))}}
			if err := s.Load("tx", seed); err != nil {
				errs <- err
				return
			}
			committed := 1
			for i := 1; i <= iterations; i++ {
				if err := sess.Begin(); err != nil {
					errs <- err
					return
				}
				err := sess.Assert(term.New(functor, term.Atom(fmt.Sprintf("entry%d", i))), term.Atom("true"))
				if err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					err = sess.Abort()
				} else {
					err = sess.Commit()
					committed++
				}
				if err != nil {
					errs <- err
					return
				}
			}
			rt, err := sess.Retrieve(term.New(functor, term.NewVar("E")), nil)
			if err != nil {
				errs <- err
				return
			}
			issued.Add(1)
			if len(rt.Candidates) != committed {
				errs <- fmt.Errorf("%s: %d clauses, want %d", functor, len(rt.Candidates), committed)
			}
		}(w)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	total := 0
	for _, n := range s.Served() {
		total += n
	}
	if int64(total) != issued.Load() {
		t.Errorf("served %d retrievals, issued %d", total, issued.Load())
	}
	if got := s.Sessions(); got != 0 {
		t.Errorf("%d sessions left open", got)
	}
}

// TestConcurrentRetrievalsSeeConsistentSnapshots: readers racing a
// committing writer must always see either the old or the new clause
// list, never a partial rebuild.
func TestConcurrentRetrievalsSeeConsistentSnapshots(t *testing.T) {
	s := newFamilyServer(t)
	seed := []core.ClauseTerm{{Head: term.New("log", term.Atom("e0"))}}
	if err := s.Load("tx", seed); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.OpenSession()
			defer sess.Close()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt, err := sess.Retrieve(term.New("log", term.NewVar("E")), nil)
				if err != nil {
					errs <- err
					return
				}
				n := len(rt.Candidates)
				// The writer only appends, so visible history is monotone.
				if n < prev {
					errs <- fmt.Errorf("snapshot shrank: %d after %d", n, prev)
					return
				}
				prev = n
			}
		}()
	}

	writer := s.OpenSession()
	for i := 1; i <= 20; i++ {
		if err := writer.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := writer.Assert(term.New("log", term.Atom(fmt.Sprintf("e%d", i))), term.Atom("true")); err != nil {
			t.Fatal(err)
		}
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	writer.Close()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
