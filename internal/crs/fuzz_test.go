package crs

import (
	"testing"

	"clare/internal/core"
	"clare/internal/term"
	"clare/internal/wire/wiretest"
)

// FuzzWireParse binds the shared wire fuzz target (corpus, reply oracle
// and invariants are wiretest's) to the backend's connection handler.
func FuzzWireParse(f *testing.F) {
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(r)
	clauses := make([]core.ClauseTerm, 8)
	for i := range clauses {
		clauses[i] = core.ClauseTerm{Head: term.New("m", term.Int(i), term.Atom("x"))}
	}
	if err := srv.Load("fuzz", clauses); err != nil {
		f.Fatal(err)
	}
	wiretest.Fuzz(f, srv.serveConn)
}
