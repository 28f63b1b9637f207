// The adaptive cost-based retrieval planner: it turns the observability
// the EXPLAIN profiles expose (candidate funnels, ghost ratios, per-stage
// costs) into per-query mode decisions. The paper leaves the choice among
// the four CRS search modes to the caller and documents one hard rule —
// shared-variable queries like married_couple(X,X) defeat the
// superimposed-codeword filter (§2.1) — so the planner combines that
// structural rule with a learned per-predicate statistics store: every
// retrieval's funnel is folded into EWMA-decayed selectivity and cost
// estimates keyed by the query's argument shape, and the next decision for
// that shape reads them back.
//
// The planner prices simulated time, so it belongs to the paper ledger,
// not to the server: the PLAN section drives one — Decide before each
// planned retrieval, Observe after each clean one. Serving picks auto mode
// with core.ChooseMode.

package main

import (
	"clare/internal/core"
	"clare/internal/term"
)

// numModes sizes per-mode arrays, indexed by core.SearchMode.
const numModes = 4

// usesFS1 reports whether the mode runs the superimposed-codeword scan —
// the stage shared-variable queries defeat.
func usesFS1(m core.SearchMode) bool { return m == core.ModeFS1 || m == core.ModeFS1FS2 }

// Shape is a query's argument signature: one byte per argument,
// 'g' ground, 'v' a variable occurring once in the goal, 's' an
// argument carrying a variable that occurs elsewhere in the goal too
// (a shared/cross-bound variable). The shape is the statistics store's
// second key: p(const,V) and p(V,const) select very differently through
// the same predicate, and p(X,X) must never be planned onto FS1.
type Shape string

// ShapeOf derives the goal's shape. Atoms (0-arity goals) have the
// empty shape.
func ShapeOf(goal term.Term) Shape {
	c, ok := term.Deref(goal).(*term.Compound)
	if !ok {
		return ""
	}
	counts := make(map[*term.Var]int)
	for _, a := range c.Args {
		countVarOccurrences(a, counts)
	}
	sig := make([]byte, len(c.Args))
	for i, a := range c.Args {
		sig[i] = argClass(a, counts)
	}
	return Shape(sig)
}

// countVarOccurrences tallies every occurrence (not distinct variables:
// p(X,X) counts X twice) of each unbound variable under t.
func countVarOccurrences(t term.Term, counts map[*term.Var]int) {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		counts[t]++
	case *term.Compound:
		for _, a := range t.Args {
			countVarOccurrences(a, counts)
		}
	}
}

// argClass classifies one argument against the goal-wide occurrence
// counts.
func argClass(a term.Term, counts map[*term.Var]int) byte {
	ground := true
	shared := false
	var walk func(t term.Term)
	walk = func(t term.Term) {
		switch t := term.Deref(t).(type) {
		case *term.Var:
			ground = false
			if counts[t] > 1 {
				shared = true
			}
		case *term.Compound:
			for _, sub := range t.Args {
				walk(sub)
			}
		}
	}
	walk(a)
	switch {
	case ground:
		return 'g'
	case shared:
		return 's'
	default:
		return 'v'
	}
}

// HasShared reports whether any argument carries a cross-bound variable.
func (s Shape) HasShared() bool {
	for i := 0; i < len(s); i++ {
		if s[i] == 's' {
			return true
		}
	}
	return false
}

// AllVars reports whether every argument is an unshared variable — the
// unconstrained query, where any filter hardware is pure overhead.
func (s Shape) AllVars() bool {
	for i := 0; i < len(s); i++ {
		if s[i] != 'v' {
			return false
		}
	}
	return true
}

// Decision is one planned retrieval: the chosen mode, why, and the
// per-mode cost estimates (nominal nanoseconds) the choice fell out of.
type Decision struct {
	Mode   core.SearchMode
	Reason string
	// Learned reports that the decision used per-shape observed stats
	// rather than only the structural cost model.
	Learned bool
	// Est holds the estimated total cost per mode, indexed by mode.
	Est [numModes]float64
}
