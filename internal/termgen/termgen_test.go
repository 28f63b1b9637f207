package termgen

import (
	"fmt"
	"testing"

	"clare/internal/term"
)

func TestDeterministic(t *testing.T) {
	run := func() string {
		g := New(99)
		out := ""
		for i := 0; i < 50; i++ {
			out += g.Goal("p", 3).String() + "\n"
		}
		return out
	}
	if run() != run() {
		t.Fatal("same seed produced different term sequences")
	}
}

func TestCoverage(t *testing.T) {
	// Over a modest sample the generator must produce every feature class
	// the soundness oracle relies on.
	g := New(7)
	var shared, open, deep, ground int
	for i := 0; i < 400; i++ {
		goal := g.Goal("p", 4)
		if term.HasSharedVars(goal) {
			shared++
		}
		if term.Ground(goal) {
			ground++
		}
		if term.Depth(goal) >= 3 {
			deep++
		}
		var walk func(t term.Term)
		walk = func(t term.Term) {
			if term.IsPartialList(t) {
				open++
			}
			if c, ok := term.Deref(t).(*term.Compound); ok {
				for _, a := range c.Args {
					walk(a)
				}
			}
		}
		walk(goal)
	}
	if shared == 0 || open == 0 || deep == 0 || ground == 0 {
		t.Fatalf("feature coverage: shared=%d open=%d deep=%d ground=%d", shared, open, deep, ground)
	}
}

func TestPairScopesDisjoint(t *testing.T) {
	g := New(3)
	for i := 0; i < 200; i++ {
		q, h := g.Pair("p", 3)
		qv := term.Vars(q, nil)
		hv := term.Vars(h, nil)
		for _, a := range qv {
			for _, b := range hv {
				if a == b {
					t.Fatalf("pair %d shares variable %v across sides", i, a)
				}
			}
		}
	}
}

func TestGoalShape(t *testing.T) {
	g := New(1)
	for _, arity := range []int{0, 1, 13} {
		goal := g.Goal("pred", arity)
		want := fmt.Sprintf("pred/%d", arity)
		if arity == 0 {
			want = "pred/0"
		}
		if goal.Indicator() != want {
			t.Fatalf("Goal(pred, %d) = %v", arity, goal.Indicator())
		}
	}
}

// TestGround: a grounded term has no variable, keeps its shape (every
// compound's functor and arity, every list's elements), and closes open
// lists.
func TestGround(t *testing.T) {
	g := New(5)
	for i := 0; i < 200; i++ {
		goal := g.Goal("p", 3)
		ground := g.Ground(goal)
		if vs := term.Vars(ground, nil); len(vs) != 0 {
			t.Fatalf("Ground(%v) = %v still has variables %v", goal, ground, vs)
		}
		var same func(a, b term.Term) bool
		same = func(a, b term.Term) bool {
			ac, ok := a.(*term.Compound)
			if !ok {
				_, isVar := a.(*term.Var)
				return isVar || a == b
			}
			bc, ok := b.(*term.Compound)
			if !ok || ac.Functor != bc.Functor || len(ac.Args) != len(bc.Args) {
				return false
			}
			for j := range ac.Args {
				if !same(ac.Args[j], bc.Args[j]) {
					return false
				}
			}
			return true
		}
		if !same(goal, ground) {
			t.Fatalf("Ground(%v) = %v changed more than the variables", goal, ground)
		}
		if _, tail := term.ListSlice(g.Ground(term.ListTail(g.Var(), term.Int(1)))); tail != term.NilAtom {
			t.Fatalf("grounded open list ends in %v", tail)
		}
	}
}
