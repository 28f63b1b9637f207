package clare

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/term"
)

func newKB(t *testing.T, opts Options) *KB {
	t.Helper()
	opts.Out = &strings.Builder{}
	kb, err := NewKB(opts)
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestQuickstartFlow(t *testing.T) {
	kb := newKB(t, Defaults())
	if err := kb.ConsultString(`grandparent(X, Z) :- parent(X, Y), parent(Y, Z).`); err != nil {
		t.Fatal(err)
	}
	if err := kb.LoadDiskPredicateString("family", `
		parent(tom, bob).
		parent(tom, liz).
		parent(bob, ann).
		parent(bob, pat).
	`); err != nil {
		t.Fatal(err)
	}
	sols, err := kb.Query("grandparent(tom, W)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 || sols[0]["W"].String() != "ann" || sols[1]["W"].String() != "pat" {
		t.Errorf("solutions = %v", sols)
	}
	// The disk predicate really went through the pipeline.
	if kb.FS2Stats().ClausesExamined == 0 {
		t.Error("FS2 board saw no clauses — retrieval bypassed CLARE")
	}
	if kb.DiskStats().BytesRead == 0 {
		t.Error("no disk traffic recorded")
	}
}

func TestDiskRulesExecute(t *testing.T) {
	kb := newKB(t, Defaults())
	if err := kb.ConsultString(`bird(tweety). bird(sam). penguin(sam).`); err != nil {
		t.Fatal(err)
	}
	if err := kb.LoadDiskPredicateString("flying", `
		fly(superman).
		fly(X) :- bird(X), \+ penguin(X).
	`); err != nil {
		t.Fatal(err)
	}
	sols, err := kb.Query("fly(W)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 || sols[0]["W"].String() != "superman" || sols[1]["W"].String() != "tweety" {
		t.Errorf("solutions = %v (disk-resident rule order must hold)", sols)
	}
}

func TestRetrieveStats(t *testing.T) {
	kb := newKB(t, Defaults())
	var clauses []core.ClauseTerm
	for i := 0; i < 64; i++ {
		h := term.New("item", term.Int(int64(i%8)), term.Int(int64(i)))
		clauses = append(clauses, core.ClauseTerm{Head: h})
	}
	if err := kb.LoadDiskPredicate("items", clauses); err != nil {
		t.Fatal(err)
	}
	rt, err := kb.Retrieve("item(3, X)", ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.TotalClauses != 64 {
		t.Errorf("total = %d", rt.Stats.TotalClauses)
	}
	if rt.Stats.AfterFS2 < 8 || rt.Stats.AfterFS2 > rt.Stats.AfterFS1 {
		t.Errorf("stage counts = %d → %d", rt.Stats.AfterFS1, rt.Stats.AfterFS2)
	}
	trueU, _, err := rt.Evaluate()
	if err != nil || trueU != 8 {
		t.Errorf("true unifiers = %d, %v", trueU, err)
	}
	// Auto mode works too.
	rt2, err := kb.RetrieveAuto("item(3, X)")
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Mode != ModeFS1FS2 {
		t.Errorf("auto mode = %v", rt2.Mode)
	}
}

func TestTable1Export(t *testing.T) {
	tbl := Table1()
	if tbl["MATCH"] != 105*time.Nanosecond {
		t.Errorf("MATCH = %v", tbl["MATCH"])
	}
	if tbl["QUERY_CROSS_BOUND_FETCH"] != 235*time.Nanosecond {
		t.Errorf("QXB = %v", tbl["QUERY_CROSS_BOUND_FETCH"])
	}
	if len(tbl) != 7 {
		t.Errorf("ops = %d", len(tbl))
	}
}

func TestPinnedMode(t *testing.T) {
	opts := Defaults()
	m := ModeSoftware
	opts.Mode = &m
	kb := newKB(t, opts)
	if err := kb.LoadDiskPredicateString("m", "p(a). p(b)."); err != nil {
		t.Fatal(err)
	}
	if ok, err := kb.Prove("p(a)"); err != nil || !ok {
		t.Fatalf("prove = %v, %v", ok, err)
	}
	// Software mode never touches the FS2 board.
	if kb.FS2Stats().ClausesExamined != 0 {
		t.Error("software mode used the FS2 board")
	}
}

func TestBadInputs(t *testing.T) {
	kb := newKB(t, Defaults())
	if err := kb.LoadDiskPredicateString("m", ""); err == nil {
		t.Error("empty disk predicate should fail")
	}
	if err := kb.LoadDiskPredicateString("m", "p(a"); err == nil {
		t.Error("syntax error should fail")
	}
	if _, err := kb.Retrieve("p(", ModeFS2); err == nil {
		t.Error("bad goal should fail")
	}
	badOpts := Defaults()
	badOpts.CodewordWidth = 0
	if _, err := NewKB(badOpts); err == nil {
		t.Error("bad options should fail")
	}
}

func TestSharedVariableEndToEnd(t *testing.T) {
	// The paper's running example, through the public API.
	kb := newKB(t, Defaults())
	if err := kb.LoadDiskPredicateString("family", `
		married_couple(fred, wilma).
		married_couple(pat, pat).
		married_couple(barney, betty).
		married_couple(lee, lee).
	`); err != nil {
		t.Fatal(err)
	}
	sols, err := kb.Query("married_couple(S, S)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("solutions = %v", sols)
	}
	rt, err := kb.Retrieve("married_couple(S, S)", ModeFS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.AfterFS2 != 2 {
		t.Errorf("FS2 candidates = %d, want only the 2 same-name couples", rt.Stats.AfterFS2)
	}
}

// TestEndToEndModeAgreement is the system-level soundness property: on a
// randomized knowledge base, every search mode yields exactly the same set
// of TRUE unifiers (the candidate sets may differ — that is the filters'
// precision — but full unification downstream must recover identical
// answers).
func TestEndToEndModeAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	atoms := []string{"a", "b", "c", "d"}
	randArg := func() term.Term {
		switch rng.Intn(6) {
		case 0:
			return term.Atom(atoms[rng.Intn(len(atoms))])
		case 1:
			return term.Int(int64(rng.Intn(4)))
		case 2:
			return term.NewVar("V")
		case 3:
			return term.New("f", term.Atom(atoms[rng.Intn(len(atoms))]))
		case 4:
			return term.List(term.Int(int64(rng.Intn(3))))
		default:
			return term.New("g", term.Int(int64(rng.Intn(2))), term.Atom(atoms[rng.Intn(len(atoms))]))
		}
	}

	kb := newKB(t, Defaults())
	var clauses []core.ClauseTerm
	for i := 0; i < 120; i++ {
		clauses = append(clauses, core.ClauseTerm{
			Head: term.New("r", randArg(), randArg()),
		})
	}
	if err := kb.LoadDiskPredicate("rand", clauses); err != nil {
		t.Fatal(err)
	}

	for qi := 0; qi < 25; qi++ {
		var goal term.Term
		if qi%5 == 0 {
			v := term.NewVar("S")
			goal = term.New("r", v, v) // shared-variable probe
		} else {
			goal = term.New("r", randArg(), randArg())
		}
		goalSrc := goal.String()
		var want int = -1
		for _, mode := range []SearchMode{ModeSoftware, ModeFS1, ModeFS2, ModeFS1FS2} {
			rt, err := kb.Retrieve(goalSrc, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", goalSrc, mode, err)
			}
			trueU, _, err := rt.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if want == -1 {
				want = trueU
			} else if trueU != want {
				t.Errorf("%s: %v finds %d true unifiers, software found %d", goalSrc, mode, trueU, want)
			}
		}
	}
}

func TestNativeEngineFacade(t *testing.T) {
	load := func(engine string) *KB {
		opts := Defaults()
		opts.Engine = engine
		kb := newKB(t, opts)
		if err := kb.LoadDiskPredicateString("family", `
			parent(tom, bob).
			parent(tom, liz).
			parent(bob, ann).
			parent(bob, pat).
		`); err != nil {
			t.Fatal(err)
		}
		return kb
	}
	sim, native := load("sim"), load("native")
	for _, mode := range []SearchMode{ModeSoftware, ModeFS1, ModeFS2, ModeFS1FS2} {
		srt, err := sim.Retrieve("parent(tom, X)", mode)
		if err != nil {
			t.Fatal(err)
		}
		nrt, err := native.Retrieve("parent(tom, X)", mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(srt.Candidates) != len(nrt.Candidates) {
			t.Fatalf("%v: sim %d candidates, native %d", mode, len(srt.Candidates), len(nrt.Candidates))
		}
		for i := range srt.Candidates {
			if srt.Candidates[i].Addr != nrt.Candidates[i].Addr {
				t.Errorf("%v: candidate %d: addr %d vs %d", mode, i, srt.Candidates[i].Addr, nrt.Candidates[i].Addr)
			}
		}
	}
	// Query/1 answers through the native pipeline too.
	sols, err := native.Query("parent(bob, W)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 || sols[0]["W"].String() != "ann" || sols[1]["W"].String() != "pat" {
		t.Errorf("native solutions = %v", sols)
	}
	if _, err := NewKB(Options{Engine: "turbo"}); err == nil {
		t.Error("Engine \"turbo\" accepted, want error")
	}
	// The library reports the simulated hardware: an empty Engine is sim.
	if kb := newKB(t, Defaults()); kb.Retriever.Engine() != core.EngineSim {
		t.Errorf("default facade engine = %v, want sim", kb.Retriever.Engine())
	}
}
