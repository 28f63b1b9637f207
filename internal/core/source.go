package core

import (
	"clare/internal/engine"
	"clare/internal/term"
	"clare/internal/unify"
)

// Source adapts a Retriever to the engine.ClauseSource interface: a
// disk-resident procedure whose candidate clauses come through the CLARE
// pipeline. The Prolog engine performs full unification on the candidates
// — the paper's division of labour (§1).
type Source struct {
	R *Retriever
	// Mode pins the search mode; nil selects per query via ChooseMode.
	Mode *SearchMode
	// LastRetrieval records the most recent retrieval for inspection.
	LastRetrieval *Retrieval
}

var _ engine.ClauseSource = (*Source)(nil)

// Candidates implements engine.ClauseSource.
func (s *Source) Candidates(goal term.Term) ([]*engine.Clause, error) {
	mode := ModeFS1FS2
	if s.Mode != nil {
		mode = *s.Mode
	} else if pred, err := s.R.Predicate(goal); err == nil {
		mode = ChooseMode(goal, pred)
	}
	rt, err := s.R.Retrieve(goal, mode)
	if err != nil {
		return nil, err
	}
	s.LastRetrieval = rt
	heads, bodies, err := rt.DecodeCandidates()
	if err != nil {
		return nil, err
	}
	out := make([]*engine.Clause, len(heads))
	for i := range heads {
		out[i] = &engine.Clause{Head: heads[i], Body: bodies[i], Seq: rt.Candidates[i].Seq}
	}
	return out, nil
}

// ChooseMode is the CRS mode-selection heuristic (§2.2): "depending on the
// nature of a query (e.g. whether it contains cross bound variables) and
// the knowledge base (e.g. whether it is rule or fact intensive)".
func ChooseMode(goal term.Term, pred *Predicate) SearchMode {
	allVars := true
	if c, ok := term.Deref(goal).(*term.Compound); ok {
		for _, a := range c.Args {
			if _, isVar := term.Deref(a).(*term.Var); !isVar {
				allVars = false
				break
			}
		}
	}
	switch {
	case allVars && !term.HasSharedVars(goal):
		// Nothing constrains the index or the matcher: every clause is a
		// potential unifier; scanning hardware would be pure overhead.
		return ModeSoftware
	case term.HasSharedVars(goal):
		// Cross-bound variables defeat the codeword filter (§2.1) but are
		// exactly what FS2's cross-binding checks handle.
		return ModeFS2
	case pred.FractionMasked() > 0.5:
		// A rule/variable-intensive predicate masks most index entries:
		// FS1 passes nearly everything, so skip the index scan.
		return ModeFS2
	default:
		return ModeFS1FS2
	}
}

// Evaluate classifies a retrieval's candidates into true unifiers and
// false drops using full unification — the downstream stage every
// candidate ultimately faces. Used by the experiments, not the hot path.
func (rt *Retrieval) Evaluate() (trueUnifiers, falseDrops int, err error) {
	heads, _, err := rt.DecodeCandidates()
	if err != nil {
		return 0, 0, err
	}
	for _, h := range heads {
		if unify.Unifiable(rt.Goal, term.Rename(h)) {
			trueUnifiers++
		} else {
			falseDrops++
		}
	}
	return trueUnifiers, falseDrops, nil
}
