package core

import (
	"fmt"
	"testing"
	"time"

	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/term"
)

// faultyRetriever builds a retriever over the family workload with the
// given fault-injection configuration.
func faultyRetriever(t *testing.T, cfg Config, n int) *Retriever {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := make([]ClauseTerm, n)
	for i := 0; i < n; i++ {
		clauses[i] = ClauseTerm{Head: term.New("married_couple",
			term.Atom(fmt.Sprintf("husband%d", i)), term.Atom(fmt.Sprintf("wife%d", i)))}
	}
	if _, err := r.AddClauses("family", clauses); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRetryOnSameBoard(t *testing.T) {
	// The board faults once (a transient TUE trap). The bounded retry runs
	// on the same board and succeeds without degrading.
	cfg := DefaultConfig()
	cfg.Faults = fault.New(1).Add(fault.Rule{Site: fault.SiteFS2, Probability: 1, Limit: 1})
	cfg.RetryBackoff = time.Microsecond
	r := faultyRetriever(t, cfg, 40)

	rt, err := r.Retrieve(parse.MustTerm("married_couple(husband3, X)"), ModeFS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Retries != 1 || rt.Stats.Faults != 1 || rt.Stats.Degraded != "" {
		t.Fatalf("stats = %+v, want one retried fault, no degradation", rt.Stats)
	}
	trueU, _, err := rt.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if trueU != 1 {
		t.Fatalf("true unifiers = %d, want 1", trueU)
	}
}

func TestIndexFaultDegradesToFS2(t *testing.T) {
	// The FS1 index stream is permanently unreadable. An fs1+fs2
	// retrieval must fall back to a full FS2 scan of the clause file —
	// which never touches the index — and still return every unifier.
	cfg := DefaultConfig()
	cfg.Faults = fault.New(1).Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 1})
	cfg.RetryBackoff = time.Microsecond
	r := faultyRetriever(t, cfg, 40)

	for _, mode := range []SearchMode{ModeFS1FS2, ModeFS1} {
		rt, err := r.Retrieve(parse.MustTerm("married_couple(husband7, X)"), mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rt.Stats.Degraded != "fs2" {
			t.Fatalf("%v: Degraded = %q, want fs2", mode, rt.Stats.Degraded)
		}
		if rt.Mode != mode {
			t.Fatalf("%v: requested mode not preserved: %v", mode, rt.Mode)
		}
		trueU, _, err := rt.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if trueU != 1 {
			t.Fatalf("%v: true unifiers = %d, want 1", mode, trueU)
		}
	}
}

func TestDeadBoardHostOnlyStillCorrect(t *testing.T) {
	// The acceptance scenario: the board faults on every FS2 search. Each
	// retrieval spends its retries on it and ends on the host rung, and
	// every one must still return the correct unifier set. The registry
	// counters of the same ladder are TestEngineDifferentialFamily's.
	cfg := DefaultConfig()
	cfg.Faults = fault.New(7).Add(fault.Rule{Site: fault.SiteFS2, Probability: 1})
	cfg.RetryBackoff = time.Microsecond
	r := faultyRetriever(t, cfg, 50)

	var faults, retries, host int
	for i := 0; i < 30; i++ {
		goal := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", i%50))
		rt, err := r.Retrieve(goal, ModeFS2)
		if err != nil {
			t.Fatalf("retrieval %d: %v", i, err)
		}
		faults += rt.Stats.Faults
		retries += rt.Stats.Retries
		if rt.Stats.Degraded == "host" {
			host++
		}
		trueU, _, err := rt.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if trueU != 1 {
			t.Fatalf("retrieval %d: true unifiers = %d, want 1", i, trueU)
		}
	}
	if faults != 90 || retries != 60 || host != 30 {
		t.Fatalf("faults %d, retries %d, host-rung retrievals %d; want 90, 60, 30", faults, retries, host)
	}

}

func TestPredicateTargetedFault(t *testing.T) {
	// The core.retrieve site is keyed by predicate indicator: one faulted
	// probe fails the whole attempt before any hardware is touched, and
	// the bounded retry completes the retrieval.
	cfg := DefaultConfig()
	cfg.Faults = fault.New(1).Add(fault.Rule{
		Site: fault.SiteRetrieve, Key: "married_couple/2", Nth: 1, Limit: 1})
	cfg.RetryBackoff = time.Microsecond
	r := faultyRetriever(t, cfg, 20)

	rt, err := r.Retrieve(parse.MustTerm("married_couple(husband2, X)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Retries != 1 || rt.Stats.Faults != 1 || rt.Stats.Degraded != "" {
		t.Fatalf("stats = %+v, want one retried predicate-targeted fault", rt.Stats)
	}
	if trueU, _, err := rt.Evaluate(); err != nil || trueU != 1 {
		t.Fatalf("evaluate = %d, %v", trueU, err)
	}
}
