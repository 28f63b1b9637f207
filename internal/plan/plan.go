// Package plan is the adaptive cost-based retrieval planner: it turns
// the observability the EXPLAIN profiles expose (candidate funnels,
// ghost ratios, per-stage costs) into per-query mode decisions. The
// paper leaves the choice among the four CRS search modes to the caller
// and documents one hard rule — shared-variable queries like
// married_couple(X,X) defeat the superimposed-codeword filter (§2.1) —
// so the planner combines that structural rule with a learned
// per-predicate statistics store: every retrieval's funnel is folded
// into EWMA-decayed selectivity and cost estimates keyed by the query's
// argument shape, and the next decision for that shape reads them back.
//
// The planner prices simulated time, so it is a library of the paper
// ledger, not of the server: clarebench's PLAN section drives one —
// Decide before each planned retrieval, Observe after each clean one —
// and no daemon path imports the package. It is deliberately
// self-contained (it imports only the term walker).
package plan

import "clare/internal/term"

// Mode is a CRS search mode. The values and wire spellings mirror
// core.SearchMode one for one, so conversion between the two is a cast.
type Mode uint8

const (
	ModeSoftware Mode = iota
	ModeFS1
	ModeFS2
	ModeFS1FS2
	// NumModes sizes per-mode arrays.
	NumModes = 4
)

func (m Mode) String() string {
	switch m {
	case ModeSoftware:
		return "software"
	case ModeFS1:
		return "fs1"
	case ModeFS2:
		return "fs2"
	case ModeFS1FS2:
		return "fs1+fs2"
	}
	return "mode?"
}

// UsesFS1 reports whether the mode runs the superimposed-codeword scan —
// the stage shared-variable queries defeat.
func (m Mode) UsesFS1() bool { return m == ModeFS1 || m == ModeFS1FS2 }

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
	Mode   Mode
	Reason string
	// Learned reports that the decision used per-shape observed stats
	// rather than only the structural cost model.
	Learned bool
	// Est holds the estimated total cost per mode, indexed by Mode.
	Est [NumModes]float64
}
