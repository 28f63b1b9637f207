package core

import (
	"bytes"
	"testing"

	"clare/internal/parse"
	"clare/internal/term"
)

func TestSaveLoadKB(t *testing.T) {
	r := familyRetriever(t, 40, 4)
	// A second predicate with rules.
	var rules []ClauseTerm
	rules = append(rules,
		ClauseTerm{Head: parse.MustTerm("fly(tweety)")},
		ClauseTerm{Head: term.New("fly", term.NewVar("X")), Body: parse.MustTerm("bird(X)")},
	)
	if _, err := r.AddClauses("flying", rules); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.SaveKB(&buf); err != nil {
		t.Fatal(err)
	}

	r2, err := LoadRetriever(DefaultConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Predicates()) != 2 {
		t.Fatalf("predicates = %v", r2.Predicates())
	}

	// Retrieval behaviour identical across the round trip.
	for _, goalSrc := range []string{
		"married_couple(husband3, X)",
		"married_couple(S, S)",
		"fly(tweety)",
	} {
		for _, mode := range modes() {
			rt1, err := r.Retrieve(parse.MustTerm(goalSrc), mode)
			if err != nil {
				t.Fatal(err)
			}
			rt2, err := r2.Retrieve(parse.MustTerm(goalSrc), mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(rt1.Candidates) != len(rt2.Candidates) {
				t.Errorf("%s %v: candidates %d vs %d after reload",
					goalSrc, mode, len(rt1.Candidates), len(rt2.Candidates))
			}
			t1, _, err := rt1.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			t2, _, err := rt2.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if t1 != t2 {
				t.Errorf("%s %v: true unifiers %d vs %d", goalSrc, mode, t1, t2)
			}
		}
	}

	// Rule/mask statistics survive.
	p1, err := r.Predicate(parse.MustTerm("fly(x)"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Predicate(parse.MustTerm("fly(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.RuleCount != p2.RuleCount || p1.MaskedClauses != p2.MaskedClauses {
		t.Errorf("stats lost: rules %d→%d, masked %d→%d",
			p1.RuleCount, p2.RuleCount, p1.MaskedClauses, p2.MaskedClauses)
	}
}

func TestLoadKBErrors(t *testing.T) {
	if _, err := LoadRetriever(DefaultConfig(), bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage store should fail")
	}
	r := familyRetriever(t, 5, 0)
	var buf bytes.Buffer
	if err := r.SaveKB(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := LoadRetriever(DefaultConfig(), bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Error("truncated store should fail")
	}
	// Corrupt the magic.
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := LoadRetriever(DefaultConfig(), bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
}

// TestSaveKBPartition: a keep-filtered slice is an ordinary store
// holding exactly the selected predicates, with retrieval behaviour
// intact, and the slices of a partition cover the whole KB.
func TestSaveKBPartition(t *testing.T) {
	r := familyRetriever(t, 20, 4)
	if _, err := r.AddClauses("flying", []ClauseTerm{
		{Head: parse.MustTerm("fly(tweety)")},
		{Head: parse.MustTerm("fly(woodstock)")},
	}); err != nil {
		t.Fatal(err)
	}

	var slice bytes.Buffer
	err := r.SaveKBPartition(&slice, func(pi Indicator) bool {
		return pi.Functor == "fly"
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRetriever(DefaultConfig(), &slice)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Predicates(); len(got) != 1 || got[0].Functor != "fly" {
		t.Fatalf("slice predicates = %v, want [fly/1]", got)
	}
	rt, err := r2.Retrieve(parse.MustTerm("fly(X)"), ModeSoftware)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Candidates) != 2 {
		t.Errorf("slice retrieval candidates = %d, want 2", len(rt.Candidates))
	}

	// A two-way partition covers every predicate exactly once.
	total := 0
	for part := 0; part < 2; part++ {
		var buf bytes.Buffer
		err := r.SaveKBPartition(&buf, func(pi Indicator) bool {
			return (len(pi.Functor)%2 == 0) == (part == 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := LoadRetriever(DefaultConfig(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rp.Predicates())
	}
	if total != len(r.Predicates()) {
		t.Errorf("partition slices hold %d predicates, want %d", total, len(r.Predicates()))
	}

	// An empty slice still round-trips (a shard may hold no predicates).
	var empty bytes.Buffer
	if err := r.SaveKBPartition(&empty, func(Indicator) bool { return false }); err != nil {
		t.Fatal(err)
	}
	re, err := LoadRetriever(DefaultConfig(), &empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Predicates()) != 0 {
		t.Errorf("empty slice holds %v", re.Predicates())
	}
}

func TestSaveKBDeterministic(t *testing.T) {
	r := familyRetriever(t, 10, 2)
	var a, b bytes.Buffer
	if err := r.SaveKB(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveKB(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("SaveKB output not deterministic")
	}
}

// goldenRetriever compiles the fixed knowledge base behind
// testdata/golden_v2.clare: facts, rules, masked (variable-bearing)
// heads and structured arguments over three predicates.
func goldenRetriever(t *testing.T) *Retriever {
	t.Helper()
	r := familyRetriever(t, 12, 5)
	modules := map[string][]string{
		"flying": {
			"fly(tweety)",
			"fly(X) :- bird(X)",
			"fly(plane(N)) :- fuelled(N), crewed(N)",
		},
		"relations": {
			"rel(a, f(b, c), [1, 2, 3])",
			"rel(X, g(X), Y) :- rel(Y, g(Y), X)",
			"rel(k, 42, \"str\")",
			"rel(_, _, nil)",
		},
	}
	for _, module := range []string{"flying", "relations"} {
		var cs []ClauseTerm
		for _, src := range modules[module] {
			c := ClauseTerm{Head: parse.MustTerm(src)}
			if w, ok := c.Head.(*term.Compound); ok && w.Functor == ":-" {
				c.Head, c.Body = w.Args[0], w.Args[1]
			}
			cs = append(cs, c)
		}
		if _, err := r.AddClauses(module, cs); err != nil {
			t.Fatal(err)
		}
	}
	return r
}
