package fs2

import (
	"fmt"

	"clare/internal/pif"
)

// NativeMatcher runs the FS2 matching microroutines directly on PIF
// words, with no board protocol, no Double Buffer or Result Memory
// simulation, and no per-operation cycle accounting — the native
// engine's steady-state filter. It embeds fixed-capacity variable stores
// (MaxVarSlots per side, the TUE's own limit), so Match performs zero
// allocations; reuse one matcher per retrieval, via a pool.
//
// The matcher decides a (head, query) pair one of two ways, with the same
// outcome. SetQuery compiles a query whose every argument is a single
// word into a step program — the Map ROM's trick of resolving the type
// pair once instead of per word — and heads without a variable word run
// that program straight-line (MatchArgs). Every other pair goes through
// clauseMatch, shared verbatim with the simulated board, which stays the
// one definition of Figure 1. Accept/reject decisions and the
// cross-binding reject split are identical to Engine.Search under the
// same microprogram either way — the equivalence the differential tests
// pin down.
type NativeMatcher struct {
	mp Microprogram
	q  *pif.Encoded

	qMem    [pif.MaxVarSlots]pif.Word
	qBound  [pif.MaxVarSlots]bool
	dbMem   [pif.MaxVarSlots]pif.Word
	dbBound [pif.MaxVarSlots]bool

	m clauseMatch

	// The compiled query: one step per top-level argument up to the last
	// one that checks anything. compiled is false when the query has a
	// multi-word argument and every head takes the generic path.
	prog     []step
	compiled bool
	// mask selects what two simple words are compared on: the whole word
	// under CompareContent, the tag byte alone at level 1.
	mask pif.Word
}

// stepOp is what one query argument asks of the head word opposite it.
// The microprogram's switches are folded in when the step is chosen: a
// variable under a microprogram without CrossBinding is a skip, and
// CompareContent is the matcher's word mask.
type stepOp uint8

const (
	// stepSkip: anonymous variable, unchecked variable, or a variable
	// that occurs once — any head word passes.
	stepSkip stepOp = iota
	// stepBind: first occurrence of a shared variable (cases 6a): the head
	// word becomes its association.
	stepBind
	// stepCmpSlot: later occurrence (case 6b): the head word must agree
	// with the association; a failure is a cross-binding reject.
	stepCmpSlot
	// stepCmpConst: atom, float or integer (cases 1–2): masked equality.
	stepCmpConst
	// stepCmpList: list-pointer constant: the sound shape logic.
	stepCmpList
)

type step struct {
	op   stepOp
	slot uint8    // stepBind, stepCmpSlot: the query variable's store slot
	word pif.Word // stepCmpConst, stepCmpList: the query word
}

// NewNativeMatcher returns a matcher for mp. DescendFull microprograms
// (the levels-4/5 what-if studies) need the simulator's position-based
// ref stores and are rejected; the native engine covers the shipped
// level-1..3(+xb) algorithms only.
func NewNativeMatcher(mp Microprogram) (*NativeMatcher, error) {
	if mp.DescendFull {
		return nil, fmt.Errorf("fs2: native matcher does not support DescendFull microprogram %q", mp.Name)
	}
	n := &NativeMatcher{mp: mp, mask: 0xFF000000}
	if mp.CompareContent {
		n.mask = 0xFFFFFFFF
	}
	n.m.mp = mp
	return n, nil
}

// Microprogram returns the matcher's microprogram.
func (n *NativeMatcher) Microprogram() Microprogram { return n.mp }

// SetQuery loads the query the following Match calls filter against and
// compiles it.
func (n *NativeMatcher) SetQuery(q *pif.Encoded) error {
	if q.Side != pif.QuerySide {
		return fmt.Errorf("fs2: query must be encoded with query-side variable tags")
	}
	nv := q.NumVars
	if nv > pif.MaxVarSlots {
		nv = pif.MaxVarSlots // unreachable via the encoder; defensive
	}
	n.q = q
	n.m.q = q
	n.m.qMem = n.qMem[:nv]
	n.m.qBound = n.qBound[:nv]
	n.compile(q, nv)
	return nil
}

// compile turns q into the step program, or clears compiled when q has
// an argument the program cannot express: an in-line complex term (its
// elements pair with the head's), a structure pointer (two words), or
// anything a query-side encoding cannot contain.
func (n *NativeMatcher) compile(q *pif.Encoded, nv int) {
	n.prog = n.prog[:0]
	n.compiled = false
	if len(q.Args) != q.Arity {
		return
	}
	// uses counts each variable's occurrences, saturating at 2: only a
	// variable seen again is worth remembering.
	var uses [pif.MaxVarSlots]uint8
	for _, w := range q.Args {
		switch t := w.Tag(); {
		case t == pif.TagFirstQV || t == pif.TagSubQV:
			if s := int(w.Content()); s < nv && uses[s] < 2 {
				uses[s]++
			}
		case t == pif.TagAnonVar, t == pif.TagAtomPtr, t == pif.TagFloatPtr, pif.IsInt(t),
			pif.Group(t) == pif.GroupListPtr, pif.Group(t) == pif.GroupUListPtr:
			// One word the program has a step for.
		default:
			return
		}
	}
	var seen [pif.MaxVarSlots]bool
	last := 0
	for i, w := range q.Args {
		st := step{op: stepSkip}
		switch t := w.Tag(); {
		case t == pif.TagAnonVar:
		case pif.IsVariable(t):
			// A slot beyond the store is never bound (storeFor's defensive
			// case), so it always passes, like a single occurrence.
			if s := int(w.Content()); n.mp.CrossBinding && s < nv && uses[s] == 2 {
				st = step{op: stepCmpSlot, slot: uint8(s)}
				if !seen[s] {
					seen[s] = true
					st.op = stepBind
				}
			}
		case pif.IsList(t):
			st = step{op: stepCmpList, word: w}
		default:
			st = step{op: stepCmpConst, word: w}
		}
		n.prog = append(n.prog, st)
		if st.op != stepSkip {
			last = i + 1
		}
	}
	n.prog = n.prog[:last]
	n.compiled = true
}

// CompiledFor reports whether MatchArgs may stand in for Match on the
// variable-free heads of predicate functor/arity: the loaded query
// compiled, and it is a query on that predicate — the functor/arity test
// Match repeats per clause, made once.
func (n *NativeMatcher) CompiledFor(functor string, arity int) bool {
	return n.compiled && n.q.Functor == functor && n.q.Arity == arity
}

// Match reports whether the clause head passes partial test unification
// against the loaded query. It resets both variable stores per clause,
// exactly like the board ("DB Memory is reset to pointing to itself at
// the beginning of each clause input", §3.3).
func (n *NativeMatcher) Match(db *pif.Encoded) bool {
	n.m.xbReject = false
	if db.Functor != n.q.Functor || db.Arity != n.q.Arity {
		return false
	}
	if n.compiled && pif.VariableFree(db.Args) {
		return n.MatchArgs(db.Args)
	}
	nv := db.NumVars
	if nv > pif.MaxVarSlots {
		nv = pif.MaxVarSlots // defensive; encoder-produced clauses fit
	}
	n.m.db = db
	n.m.dbMem = n.dbMem[:nv]
	n.m.dbBound = n.dbBound[:nv]
	for i := range n.m.dbBound {
		n.m.dbBound[i] = false
	}
	for i := range n.m.qBound {
		n.m.qBound[i] = false
	}
	return n.m.matchArgs()
}

// MatchArgs is Match for a caller that holds a head's argument words
// rather than its record (a clause file's head stream) and has
// established what Match would test first: CompiledFor the head's
// predicate, and no variable word among args (pif.VariableFree). It runs
// the compiled program: no store reset — the program binds every slot
// before it reads it — and one step per query argument. The head side
// can only be concrete, so each step is a case 1–4 comparison or a case 6
// bind/check, decided as compareWords decides it.
func (n *NativeMatcher) MatchArgs(args []pif.Word) bool {
	n.m.xbReject = false
	pos := 0
	for i := range n.prog {
		if i > 0 {
			// Step over the previous argument: one word unless complex.
			if args[pos]>>30 == 0 {
				pos++
			} else {
				pos += runLen(args, pos)
			}
		}
		st, dw := &n.prog[i], args[pos]
		switch st.op {
		case stepBind:
			n.qMem[st.slot] = dw
		case stepCmpSlot:
			// concreteEqual, with its common case — two simple words, whose
			// comparison is masked equality — decided in line.
			val := n.qMem[st.slot]
			var agree bool
			if (val|dw)>>30 == 0 {
				agree = (val^dw)&n.mask == 0
			} else {
				agree = n.m.concreteEqual(val, dw)
			}
			if !agree {
				n.m.xbReject = true
				return false
			}
		case stepCmpConst:
			if (dw^st.word)&n.mask != 0 {
				return false
			}
		case stepCmpList:
			if !n.m.concreteEqual(dw, st.word) {
				return false
			}
		}
	}
	return true
}

// LastRejectXB reports whether the most recent failing Match was
// rejected by a variable cross-binding consistency check rather than a
// plain level-3 mismatch (the EXPLAIN reject split).
func (n *NativeMatcher) LastRejectXB() bool { return n.m.xbReject }
