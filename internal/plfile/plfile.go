// Package plfile reads Prolog source files into the clause lists the CLARE
// store builders consume — the shared front door of the kbc, crsd and
// claresim tools.
package plfile

import (
	"fmt"
	"os"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
)

// ReadClauses parses Prolog source text into head/body clause pairs.
// Directives (:- Goal) are rejected: predicate files are pure clause data.
func ReadClauses(src string) ([]core.ClauseTerm, error) {
	p, err := parse.New(src)
	if err != nil {
		return nil, err
	}
	ts, err := p.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]core.ClauseTerm, 0, len(ts))
	for i, t := range ts {
		if c, ok := t.(*term.Compound); ok && c.Functor == ":-" {
			switch len(c.Args) {
			case 1:
				return nil, fmt.Errorf("plfile: clause %d is a directive; predicate files hold clauses only", i+1)
			case 2:
				out = append(out, core.ClauseTerm{Head: c.Args[0], Body: c.Args[1]})
				continue
			}
		}
		out = append(out, core.ClauseTerm{Head: t})
	}
	return out, nil
}

// ReadFile is ReadClauses over a file, split into one clause list per
// predicate (functor/arity) — the unit a clause file holds — in order of
// first appearance, each list in source order: a file may hold any number
// of predicates, their clauses in any order.
func ReadFile(path string) ([][]core.ClauseTerm, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cls, err := ReadClauses(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return byPredicate(cls), nil
}

func byPredicate(cls []core.ClauseTerm) [][]core.ClauseTerm {
	var preds [][]core.ClauseTerm
	at := make(map[string]int)
	for _, c := range cls {
		key := c.Head.Indicator()
		i, ok := at[key]
		if !ok {
			i, at[key] = len(preds), len(preds)
			preds = append(preds, nil)
		}
		preds[i] = append(preds[i], c)
	}
	return preds
}
