package plan

import (
	"math/rand"
	"testing"
	"time"

	"clare/internal/term"
)

func TestShapeOf(t *testing.T) {
	x := term.NewVar("X")
	cases := []struct {
		goal term.Term
		want Shape
	}{
		{term.New("p", term.Atom("a"), term.Int(3)), "gg"},
		{term.New("p", term.Atom("a"), term.NewVar("V")), "gv"},
		{term.New("p", term.NewVar("A"), term.NewVar("B")), "vv"},
		{term.New("p", x, x), "ss"},
		{term.New("p", x, term.New("f", x), term.NewVar("Y")), "ssv"},
		{term.Atom("p"), ""},
	}
	for _, c := range cases {
		if got := ShapeOf(c.goal); got != c.want {
			t.Errorf("ShapeOf(%v) = %q, want %q", c.goal, got, c.want)
		}
	}
	if !Shape("gsv").HasShared() || Shape("gv").HasShared() {
		t.Error("HasShared misclassifies")
	}
	if !Shape("vv").AllVars() || Shape("gv").AllVars() {
		t.Error("AllVars misclassifies")
	}
}

func TestDecideStructuralRules(t *testing.T) {
	p := New()

	// Shared variables must never plan onto the codeword filter.
	d := p.Decide("married_couple/2", "ss", 1000, 0)
	if d.Mode.UsesFS1() {
		t.Fatalf("shared-var shape planned onto FS1: %v", d)
	}
	if d.Reason != "shared-vars" {
		t.Fatalf("reason = %q, want shared-vars", d.Reason)
	}

	// All-variable shapes constrain nothing: software.
	if d := p.Decide("p/2", "vv", 1000, 0); d.Mode != ModeSoftware {
		t.Fatalf("all-vars shape planned %v, want software", d.Mode)
	}

	// A cold fact-intensive predicate takes the full pipeline, a
	// heavily-masked one skips the useless index scan — the §2.2
	// heuristic recovered from the cost model alone.
	if d := p.Decide("fact/2", "gv", 1000, 0); d.Mode != ModeFS1FS2 {
		t.Fatalf("cold fact pred planned %v, want fs1+fs2", d.Mode)
	}
	if d := p.Decide("rule/2", "gv", 1000, 950); d.Mode != ModeFS2 {
		t.Fatalf("cold masked pred planned %v, want fs2", d.Mode)
	}

	c := p.Counters()
	if c.Decisions != 4 || c.SharedVarSkips != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDecideLearns(t *testing.T) {
	p := New()
	// Feed the store a regime where fs2 is observed far cheaper than the
	// pipeline for this shape (say FS1 passes everything: sel1 ~ 1).
	for i := 0; i < 10; i++ {
		p.Observe("q/2", "gv", ModeFS1FS2, Observation{
			TotalClauses: 1000, AfterFS1: 1000, AfterFS2: 20,
			Sim: 80 * time.Millisecond,
		})
		p.Observe("q/2", "gv", ModeFS2, Observation{
			TotalClauses: 1000, AfterFS1: 1000, AfterFS2: 20,
			Sim: 8 * time.Millisecond,
		})
	}
	d := p.Decide("q/2", "gv", 1000, 0)
	if d.Mode != ModeFS2 {
		t.Fatalf("learned decision = %v (est %v), want fs2", d.Mode, d.Est)
	}
	if !d.Learned || d.Reason != "learned" {
		t.Fatalf("decision not marked learned: %+v", d)
	}
}

// randObs drives the store with a reproducible observation stream.
func randObs(rng *rand.Rand, p *Planner, n int) {
	preds := []string{"a/2", "b/3", "c/1"}
	shapes := []Shape{"gv", "vg", "ss", "gg", "vvv", "sgs", "v"}
	for i := 0; i < n; i++ {
		total := 10 + rng.Intn(5000)
		a1 := rng.Intn(total + 1)
		a2 := rng.Intn(a1 + 1)
		p.Observe(preds[rng.Intn(len(preds))], shapes[rng.Intn(len(shapes))],
			Mode(rng.Intn(NumModes)), Observation{
				TotalClauses: total, AfterFS1: a1, AfterFS2: a2,
				Sim: time.Duration(rng.Int63n(int64(time.Second))),
			})
	}
}

// decisions samples the planner over a fixed query grid.
func decisions(p *Planner) []Decision {
	var out []Decision
	for _, pred := range []string{"a/2", "b/3", "c/1", "never_seen/4"} {
		for _, shape := range []Shape{"gv", "vg", "ss", "gg", "vvv", "v", ""} {
			for _, clauses := range []int{0, 7, 900, 5000} {
				out = append(out, p.Decide(pred, shape, clauses, clauses/3))
			}
		}
	}
	return out
}

// TestDeterministicDecisions: two planners fed the same seeded stream
// decide identically — there is no hidden nondeterminism (map order,
// timing) in the decision path.
func TestDeterministicDecisions(t *testing.T) {
	const seed = 42
	p, q := New(), New()
	randObs(rand.New(rand.NewSource(seed)), p, 300)
	randObs(rand.New(rand.NewSource(seed)), q, 300)
	dp, dq := decisions(p), decisions(q)
	for i := range dp {
		if dp[i] != dq[i] {
			t.Fatalf("decision %d diverged between identical planners: %+v vs %+v", i, dp[i], dq[i])
		}
	}
}
