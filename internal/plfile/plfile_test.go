package plfile

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/term"
	"clare/internal/workload"
)

func TestReadClauses(t *testing.T) {
	cls, err := ReadClauses(`
		fact(a).
		rule(X) :- fact(X).
		fact(b).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 3 {
		t.Fatalf("clauses = %d", len(cls))
	}
	if cls[0].Body != nil {
		t.Error("fact should have nil body")
	}
	if cls[1].Body == nil || cls[1].Body.Indicator() != "fact/1" {
		t.Errorf("rule body = %v", cls[1].Body)
	}
	// User order preserved.
	if cls[2].Head.String() != "fact(b)" {
		t.Errorf("order broken: %v", cls[2].Head)
	}
}

func TestReadClausesRejectsDirectives(t *testing.T) {
	if _, err := ReadClauses(":- module(zoo).\nanimal(lion)."); err == nil {
		t.Error("directives should be rejected in predicate files")
	}
}

func TestReadClausesSyntaxError(t *testing.T) {
	if _, err := ReadClauses("broken(."); err == nil {
		t.Error("syntax error should be reported")
	}
}

func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pl")
	if err := os.WriteFile(path, []byte("p(1).\np(2).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	preds, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || len(preds[0]) != 2 || !term.Equal(preds[0][0].Head, term.New("p", term.Int(1))) {
		t.Errorf("predicates = %v", preds)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.pl")); err == nil {
		t.Error("missing file should error")
	}
}

// loadAll reads a .pl file and loads every predicate in it the two ways
// the tools do — core.AddClauses (kbc, claresim) and crs.Server.Load
// (crsd) — returning the predicates in file order.
func loadAll(t *testing.T, src string) [][]core.ClauseTerm {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.pl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	preds, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := crs.NewServer(sr)
	for _, cls := range preds {
		pred, err := r.AddClauses("kb", cls)
		if err != nil {
			t.Fatal(err)
		}
		if pred.File.Len() != len(cls) {
			t.Errorf("%s: compiled %d clauses, read %d", cls[0].Head.Indicator(), pred.File.Len(), len(cls))
		}
		if err := srv.Load("kb", cls); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.Predicates()); got != len(preds) {
		t.Errorf("retriever holds %d predicates, file has %d", got, len(preds))
	}
	return preds
}

// TestReadFileWarrenKB: a generated Warren-style KB — several predicates
// in one file, as kbgen -kind warren writes it — loads whole: one list per
// predicate, in the generator's order and with its clause counts.
func TestReadFileWarrenKB(t *testing.T) {
	w := workload.WarrenKB{Scale: 0.001}
	gen := w.Generate()
	var src strings.Builder
	total := 0
	for _, p := range gen {
		for _, c := range p.Clauses {
			if c.Body == nil {
				fmt.Fprintf(&src, "%s.\n", c.Head)
			} else {
				fmt.Fprintf(&src, "%s :- %s.\n", c.Head, c.Body)
			}
		}
		total += len(p.Clauses)
	}
	preds := loadAll(t, src.String())
	if len(preds) != 3 || len(gen) != 3 || total != 3028 {
		t.Fatalf("%d predicates read, %d generated, %d clauses; want 3, 3, 3028", len(preds), len(gen), total)
	}
	for i, cls := range preds {
		if name := cls[0].Head.Indicator(); name != gen[i].Name+"/2" || len(cls) != len(gen[i].Clauses) {
			t.Errorf("predicate %d: %s with %d clauses, want %s/2 with %d", i, name, len(cls), gen[i].Name, len(gen[i].Clauses))
		}
	}
}

// TestReadFileDiscontiguous: a predicate whose clauses are split by
// another's is still one list, in source order.
func TestReadFileDiscontiguous(t *testing.T) {
	preds := loadAll(t, "p(1).\nq(a).\np(2) :- q(a).\n")
	if len(preds) != 2 || len(preds[0]) != 2 || len(preds[1]) != 1 {
		t.Fatalf("predicates = %v", preds)
	}
	if !term.Equal(preds[0][1].Head, term.New("p", term.Int(2))) || preds[1][0].Head.Indicator() != "q/1" {
		t.Errorf("order broken: %v", preds)
	}
}
