package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clare/internal/parse"
	"clare/internal/term"
)

// buildRetriever is familyRetriever with a configurable Config.
func buildRetriever(t *testing.T, cfg Config, n, sameEvery int) *Retriever {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := make([]ClauseTerm, n)
	for i := 0; i < n; i++ {
		a := term.Atom(fmt.Sprintf("husband%d", i))
		b := term.Atom(fmt.Sprintf("wife%d", i))
		if sameEvery > 0 && i%sameEvery == 0 {
			b = a
		}
		clauses[i] = ClauseTerm{Head: term.New("married_couple", a, b)}
	}
	if _, err := r.AddClauses("family", clauses); err != nil {
		t.Fatal(err)
	}
	return r
}

func poolGoals() []string {
	return []string{
		"married_couple(husband3, X)",
		"married_couple(X, Y)",
		"married_couple(S, S)",
		"married_couple(husband8, wife8)",
		"married_couple(nobody, X)",
		"married_couple(husband12, _)",
	}
}

func addrsOf(rt *Retrieval) []uint32 {
	out := make([]uint32, len(rt.Candidates))
	for i, sc := range rt.Candidates {
		out[i] = sc.Addr
	}
	return out
}

// TestPooledMatchesSingleBoard: retrieval through a multi-board pool must
// return byte-identical candidates and identical per-retrieval stats to
// the paper's single-board configuration, in every mode.
func TestPooledMatchesSingleBoard(t *testing.T) {
	single := buildRetriever(t, DefaultConfig(), 80, 5)
	cfg := DefaultConfig()
	cfg.Boards = 4
	pooled := buildRetriever(t, cfg, 80, 5)

	for _, g := range poolGoals() {
		for _, mode := range modes() {
			want, err := single.Retrieve(parse.MustTerm(g), mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pooled.Retrieve(parse.MustTerm(g), mode)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(addrsOf(got)) != fmt.Sprint(addrsOf(want)) {
				t.Errorf("%s %v: candidates %v, want %v", g, mode, addrsOf(got), addrsOf(want))
			}
			if got.Stats != want.Stats {
				t.Errorf("%s %v: stats %+v, want %+v", g, mode, got.Stats, want.Stats)
			}
		}
	}
}

// TestConcurrentRetrieveMatchesSerial: many goroutines hammering one
// pooled retriever must each see exactly the answer the serial path
// produces (run under -race to also prove memory safety).
func TestConcurrentRetrieveMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 4
	r := buildRetriever(t, cfg, 80, 5)

	goals := poolGoals()
	want := make(map[string]string, len(goals))
	for _, g := range goals {
		rt, err := r.Retrieve(parse.MustTerm(g), ModeFS1FS2)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = fmt.Sprint(addrsOf(rt))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				g := goals[(w+i)%len(goals)]
				rt, err := r.Retrieve(parse.MustTerm(g), ModeFS1FS2)
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprint(addrsOf(rt)); got != want[g] {
					errs <- fmt.Errorf("%s: candidates %s, want %s", g, got, want[g])
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
}

// TestQueryCacheHits: repeating a goal shape must hit the cache, and a
// cache hit must not change the retrieval.
func TestQueryCacheHits(t *testing.T) {
	r := buildRetriever(t, DefaultConfig(), 40, 0)
	first, err := r.Retrieve(parse.MustTerm("married_couple(husband3, X)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.QueryCacheHit {
		t.Error("first retrieval reported a cache hit")
	}
	// Same shape, different variable names: must hit.
	second, err := r.Retrieve(parse.MustTerm("married_couple(husband3, Anyone)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.QueryCacheHit {
		t.Error("repeat retrieval missed the cache")
	}
	if fmt.Sprint(addrsOf(second)) != fmt.Sprint(addrsOf(first)) {
		t.Errorf("cache hit changed candidates: %v vs %v", addrsOf(second), addrsOf(first))
	}
	cs := r.QueryCache()
	if cs.Hits < 1 || cs.Size < 1 {
		t.Errorf("cache stats %+v, want ≥1 hit and ≥1 entry", cs)
	}

	// p(X, X) must not share an entry with p(X, Y).
	aliased, err := r.Retrieve(parse.MustTerm("married_couple(S, S)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if aliased.Stats.QueryCacheHit {
		t.Error("married_couple(S,S) wrongly hit the married_couple(_,X) entry")
	}
}

// TestStreamingChunks: with a small chunk size the fs1+fs2 path must
// stream in several chunks, keep the same candidates, and account a
// Total that is at least each stage's own time (nothing is free) but at
// most the serial sum (the overlap can only help).
func TestStreamingChunks(t *testing.T) {
	base := buildRetriever(t, DefaultConfig(), 120, 6)
	cfg := DefaultConfig()
	cfg.StreamChunkEntries = 16
	chunked := buildRetriever(t, cfg, 120, 6)

	for _, g := range poolGoals() {
		want, err := base.Retrieve(parse.MustTerm(g), ModeFS1FS2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := chunked.Retrieve(parse.MustTerm(g), ModeFS1FS2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Chunks < 2 {
			t.Errorf("%s: chunks = %d, want ≥ 2", g, got.Stats.Chunks)
		}
		if fmt.Sprint(addrsOf(got)) != fmt.Sprint(addrsOf(want)) {
			t.Errorf("%s: chunked candidates %v, want %v", g, addrsOf(got), addrsOf(want))
		}
		sum := got.Stats.FS1Scan + got.Stats.DiskFetch + got.Stats.FS2Match
		if got.Stats.Total > sum {
			t.Errorf("%s: Total %v exceeds serial sum %v", g, got.Stats.Total, sum)
		}
		for _, stage := range []struct {
			name string
			d    interface{ Nanoseconds() int64 }
		}{{"FS1Scan", got.Stats.FS1Scan}, {"FS2Match", got.Stats.FS2Match}} {
			if got.Stats.Total.Nanoseconds() < stage.d.Nanoseconds() {
				t.Errorf("%s: Total %v beats %s %v", g, got.Stats.Total, stage.name, stage.d)
			}
		}
	}
}

// TestPredicatesSorted: Predicates() must come back ordered by
// functor/arity regardless of load order.
func TestPredicatesSorted(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zebra", "alpha", "mid"} {
		cl := []ClauseTerm{{Head: term.New(name, term.Atom("a"), term.Atom("b"))}}
		if _, err := r.AddClauses("m", cl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.AddClauses("m", []ClauseTerm{{Head: term.New("alpha", term.Atom("x"))}}); err != nil {
		t.Fatal(err)
	}
	got := r.Predicates()
	want := []Indicator{
		{Functor: "alpha", Arity: 1},
		{Functor: "alpha", Arity: 2},
		{Functor: "mid", Arity: 2},
		{Functor: "zebra", Arity: 2},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Predicates() = %v, want %v", got, want)
	}
}

// TestMakespan: the closed-system schedule must serialise on one board,
// divide by the chassis width when clients keep it busy, and be limited
// by the client count when that is smaller.
func TestMakespan(t *testing.T) {
	service := make([]time.Duration, 64)
	for i := range service {
		service[i] = 10 * time.Millisecond
	}
	serial := Makespan(service, 1, 8)
	if want := 640 * time.Millisecond; serial != want {
		t.Errorf("1 board: makespan %v, want %v", serial, want)
	}
	quad := Makespan(service, 4, 8)
	if want := 160 * time.Millisecond; quad != want {
		t.Errorf("4 boards: makespan %v, want %v", quad, want)
	}
	// Two clients can keep at most two boards busy.
	clientBound := Makespan(service, 8, 2)
	if want := 320 * time.Millisecond; clientBound != want {
		t.Errorf("8 boards 2 clients: makespan %v, want %v", clientBound, want)
	}
	if Makespan(nil, 4, 4) != 0 {
		t.Error("empty schedule has nonzero makespan")
	}
}

// TestBoardPoolLease: the pool must hand out distinct units under
// contention and always prefer slot 0 when idle.
func TestBoardPoolLease(t *testing.T) {
	cfg := DefaultConfig()
	pool, err := newBoardPool(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	u0 := pool.lease()
	if u0.slot != 0 {
		t.Errorf("idle lease slot = %d, want 0", u0.slot)
	}
	u1 := pool.lease()
	u2 := pool.lease()
	if u1 == u0 || u2 == u0 || u1 == u2 {
		t.Error("pool leased the same unit twice")
	}
	done := make(chan *boardUnit)
	go func() { done <- pool.lease() }()
	pool.release(u2)
	if got := <-done; got != u2 {
		t.Errorf("blocked lease got slot %d, want %d", got.slot, u2.slot)
	}
	pool.release(u0)
	pool.release(u1)
}
