package main

import (
	"fmt"
	"testing"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
)

// plannerRetriever builds a retriever over a mixed KB: a selective fact
// relation, a rule-intensive predicate whose masked index entries defeat
// FS1, and the §2.1 shared-variable family.
func plannerRetriever(t *testing.T) *core.Retriever {
	t.Helper()
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	rel := make([]core.ClauseTerm, 120)
	for i := range rel {
		rel[i] = core.ClauseTerm{Head: term.New("orel",
			term.Atom(fmt.Sprintf("k%d", i%12)), term.Atom(fmt.Sprintf("v%d", i)))}
	}
	if _, err := r.AddClauses("oracle", rel); err != nil {
		t.Fatal(err)
	}

	rules := make([]core.ClauseTerm, 40)
	for i := range rules {
		v := term.NewVar("X")
		rules[i] = core.ClauseTerm{
			Head: term.New("orule", v, term.Atom(fmt.Sprintf("c%d", i%5))),
			Body: term.New("orel", v, term.Atom(fmt.Sprintf("v%d", i))),
		}
	}
	if _, err := r.AddClauses("oracle", rules); err != nil {
		t.Fatal(err)
	}

	fam := make([]core.ClauseTerm, 48)
	for i := range fam {
		a := term.Atom(fmt.Sprintf("husband%d", i))
		b := term.Atom(fmt.Sprintf("wife%d", i))
		if i%6 == 0 {
			b = a
		}
		fam[i] = core.ClauseTerm{Head: term.New("married_couple", a, b)}
	}
	if _, err := r.AddClauses("oracle", fam); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlannerDifferentialOracle is the planner's correctness oracle,
// with the planner driven as a library over a retriever: on a mixed
// workload, every goal's true-unifier count under the planner-chosen
// mode must equal its count under each of the four static modes — at
// every point of the planner's learning curve, since the rounds keep
// feeding cost observations between decisions. Shaped goals with shared
// variables must additionally never be planned onto an FS1 rung (the
// codeword filter passes everything for them, §2.1).
func TestPlannerDifferentialOracle(t *testing.T) {
	r := plannerRetriever(t)
	p := newPlanner()
	goals := []string{
		"orel(k3, V)",
		"orel(k11, V)",
		"orel(nokey, V)",
		"orel(X, Y)",
		"orel(k2, v26)",
		"orule(c2, V)",
		"orule(V, c4)",
		"married_couple(S, S)",
		"married_couple(husband6, husband6)",
		"married_couple(husband3, X)",
	}
	for round := 0; round < 3; round++ {
		for _, g := range goals {
			goal := parse.MustTerm(g)

			// Ground truth plus planner feeding: every static mode sees
			// the goal, so the planner's cost model keeps learning (and
			// possibly changing its decision) between rounds.
			want := -1
			for _, mode := range []core.SearchMode{core.ModeSoftware, core.ModeFS1, core.ModeFS2, core.ModeFS1FS2} {
				rt, err := r.Retrieve(parse.MustTerm(g), mode)
				if err != nil {
					t.Fatalf("round %d %s %v: %v", round, g, mode, err)
				}
				observe(p, rt)
				trueU, _, err := rt.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				if want == -1 {
					want = trueU
				} else if trueU != want {
					t.Fatalf("round %d %s %v: static mode true unifiers = %d, want %d",
						round, g, mode, trueU, want)
				}
			}

			pred, err := r.Predicate(goal)
			if err != nil {
				t.Fatal(err)
			}
			pi := core.Indicator{Functor: pred.File.Functor, Arity: pred.File.Arity}
			shape := ShapeOf(goal)
			d := p.Decide(pi.String(), shape, pred.File.Len(), pred.MaskedClauses)
			if shape.HasShared() && usesFS1(d.Mode) {
				t.Errorf("round %d %s: shared-variable goal planned onto %v (codeword filter is blind to it)",
					round, g, d.Mode)
			}
			m := d.Mode
			rt, err := r.Retrieve(goal, m)
			if err != nil {
				t.Fatalf("round %d %s planner(%v): %v", round, g, m, err)
			}
			observe(p, rt)
			gotTrue, _, err := rt.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if gotTrue != want {
				t.Errorf("round %d %s planner(%v): true unifiers = %d, want %d",
					round, g, m, gotTrue, want)
			}
		}
	}
	if skips := p.Counters().SharedVarSkips; skips == 0 {
		t.Error("no shared-variable codeword skip recorded across the oracle workload")
	}
}
