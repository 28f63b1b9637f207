// Package term defines the Prolog term representation shared by every layer
// of the CLARE reproduction: the Prolog engine, the PIF compiler, the
// software partial-test-unification reference and the simulated hardware.
//
// Terms follow Edinburgh Prolog: atoms, integers, floats, variables and
// compound terms. Lists are compound terms with functor "." and arity 2
// terminated by the atom []. Variables are mutable cells bound destructively
// during unification and unwound via a trail (package unify).
package term

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Term is a Prolog term. The concrete types are Atom, Int, Float, *Var and
// *Compound.
type Term interface {
	// Indicator returns a short description of the term's principal
	// functor, e.g. "foo/2", "bar/0", "42", "_G3".
	Indicator() string
	String() string
}

// Atom is a Prolog atom such as foo or [].
type Atom string

// Int is a Prolog integer.
type Int int64

// Float is a Prolog floating point number.
type Float float64

// Var is a logic variable: a mutable cell. An unbound variable has Ref nil.
// Binding is destructive; undoing is the caller's job (see unify.Trail).
type Var struct {
	Name string // source name; "" for machine-generated variables
	Ref  Term   // nil when unbound
	id   uint64 // allocation order, for stable printing and ordering
}

// Compound is a compound term: a functor applied to one or more arguments.
// A Compound always has at least one argument; zero-arity "compounds" are
// Atoms.
type Compound struct {
	Functor string
	Args    []Term
}

// Reserved functor and atom names for lists.
const (
	ConsFunctor = "."
	NilAtom     = Atom("[]")
)

// varCounter is atomic: concurrent sessions parse and rename terms in
// parallel, and each fresh variable must still get a unique id.
var varCounter atomic.Uint64

// NewVar returns a fresh unbound variable with the given source name.
func NewVar(name string) *Var {
	return &Var{Name: name, id: varCounter.Add(1)}
}

// ID returns the variable's allocation number. Fresh variables have strictly
// increasing IDs; the ID never changes.
func (v *Var) ID() uint64 { return v.id }

// New builds a compound term, or the atom itself when no arguments are
// given.
func New(functor string, args ...Term) Term {
	if len(args) == 0 {
		return Atom(functor)
	}
	return &Compound{Functor: functor, Args: args}
}

// Cons builds the list cell [head|tail].
func Cons(head, tail Term) *Compound {
	return &Compound{Functor: ConsFunctor, Args: []Term{head, tail}}
}

// List builds a proper list of the given elements.
func List(elems ...Term) Term { return ListTail(NilAtom, elems...) }

// ListTail builds [elems... | tail].
func ListTail(tail Term, elems ...Term) Term {
	t := tail
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// Deref follows variable bindings until reaching an unbound variable or a
// non-variable term.
func Deref(t Term) Term {
	for {
		v, ok := t.(*Var)
		if !ok || v.Ref == nil {
			return t
		}
		t = v.Ref
	}
}

// IsCons reports whether t (after dereferencing) is a './2' cell and returns
// its head and tail.
func IsCons(t Term) (head, tail Term, ok bool) {
	c, isC := Deref(t).(*Compound)
	if !isC || c.Functor != ConsFunctor || len(c.Args) != 2 {
		return nil, nil, false
	}
	return c.Args[0], c.Args[1], true
}

// ListSlice decomposes t into its list elements and final tail. For a proper
// list the tail is NilAtom. It never loops: cyclic structures are impossible
// to build through the public API without rational-tree unification, which
// this system does not perform.
func ListSlice(t Term) (elems []Term, tail Term) {
	for {
		h, tl, ok := IsCons(t)
		if !ok {
			return elems, Deref(t)
		}
		elems = append(elems, h)
		t = tl
	}
}

// IsProperList reports whether t is a nil-terminated list.
func IsProperList(t Term) bool {
	_, tail := ListSlice(t)
	return tail == NilAtom
}

// IsPartialList reports whether t is a list whose tail is an unbound
// variable — the paper's "unlimited list", e.g. [a,b|T].
func IsPartialList(t Term) bool {
	elems, tail := ListSlice(t)
	if len(elems) == 0 {
		return false
	}
	_, isVar := tail.(*Var)
	return isVar
}

// Indicator implementations.

func (a Atom) Indicator() string      { return string(a) + "/0" }
func (i Int) Indicator() string       { return fmt.Sprintf("%d", int64(i)) }
func (f Float) Indicator() string     { return fmt.Sprintf("%g", float64(f)) }
func (v *Var) Indicator() string      { return v.displayName() }
func (c *Compound) Indicator() string { return fmt.Sprintf("%s/%d", c.Functor, len(c.Args)) }

func (v *Var) displayName() string {
	if v.Name != "" && v.Name != "_" {
		return v.Name
	}
	return string(AppendVarName(nil, "", v.id))
}

// Ground reports whether t contains no unbound variables.
func Ground(t Term) bool {
	switch t := Deref(t).(type) {
	case *Var:
		return false
	case *Compound:
		for _, a := range t.Args {
			if !Ground(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Vars appends the distinct unbound variables of t, in first-occurrence
// order, to dst and returns the result.
func Vars(t Term, dst []*Var) []*Var {
	switch t := Deref(t).(type) {
	case *Var:
		for _, v := range dst {
			if v == t {
				return dst
			}
		}
		return append(dst, t)
	case *Compound:
		for _, a := range t.Args {
			dst = Vars(a, dst)
		}
	}
	return dst
}

// HasSharedVars reports whether any unbound variable occurs more than once
// in t. Shared variables are the case the superimposed-codeword filter
// cannot handle and the FS2 cross-binding check exists for (§2.1).
func HasSharedVars(t Term) bool {
	counts := make(map[*Var]int)
	countVars(t, counts)
	for _, n := range counts {
		if n > 1 {
			return true
		}
	}
	return false
}

func countVars(t Term, counts map[*Var]int) {
	switch t := Deref(t).(type) {
	case *Var:
		counts[t]++
	case *Compound:
		for _, a := range t.Args {
			countVars(a, counts)
		}
	}
}

// Rename returns a copy of t with every unbound variable replaced by a fresh
// variable; bound variables are replaced by (renamed copies of) their values.
// The same variable maps to the same fresh variable throughout.
func Rename(t Term) Term {
	return renameInto(t, make(map[*Var]*Var))
}

// RenameWith is Rename with a caller-supplied mapping, letting several terms
// (e.g. the head and body of a clause) share one renaming.
func RenameWith(t Term, m map[*Var]*Var) Term { return renameInto(t, m) }

func renameInto(t Term, m map[*Var]*Var) Term {
	switch t := Deref(t).(type) {
	case *Var:
		if nv, ok := m[t]; ok {
			return nv
		}
		nv := NewVar(t.Name)
		m[t] = nv
		return nv
	case *Compound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = renameInto(a, m)
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// Equal reports structural equality after dereferencing (Prolog ==/2).
// Unbound variables are equal only to themselves.
func Equal(a, b Term) bool {
	a, b = Deref(a), Deref(b)
	switch a := a.(type) {
	case Atom:
		b, ok := b.(Atom)
		return ok && a == b
	case Int:
		b, ok := b.(Int)
		return ok && a == b
	case Float:
		b, ok := b.(Float)
		return ok && a == b
	case *Var:
		return a == b
	case *Compound:
		b, ok := b.(*Compound)
		if !ok || a.Functor != b.Functor || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare imposes the standard order of terms:
// Var < Float < Int < Atom < Compound; compounds order by arity, then
// functor, then arguments left to right. Returns -1, 0 or +1.
func Compare(a, b Term) int {
	a, b = Deref(a), Deref(b)
	ra, rb := orderRank(a), orderRank(b)
	if ra != rb {
		return sign(ra - rb)
	}
	switch a := a.(type) {
	case *Var:
		return sign(int(a.id) - int(b.(*Var).id))
	case Float:
		bf := b.(Float)
		switch {
		case a < bf:
			return -1
		case a > bf:
			return 1
		}
		return 0
	case Int:
		bi := b.(Int)
		switch {
		case a < bi:
			return -1
		case a > bi:
			return 1
		}
		return 0
	case Atom:
		return strings.Compare(string(a), string(b.(Atom)))
	case *Compound:
		bc := b.(*Compound)
		if d := len(a.Args) - len(bc.Args); d != 0 {
			return sign(d)
		}
		if d := strings.Compare(a.Functor, bc.Functor); d != 0 {
			return d
		}
		for i := range a.Args {
			if d := Compare(a.Args[i], bc.Args[i]); d != 0 {
				return d
			}
		}
		return 0
	}
	return 0
}

func orderRank(t Term) int {
	switch t.(type) {
	case *Var:
		return 0
	case Float:
		return 1
	case Int:
		return 2
	case Atom:
		return 3
	default:
		return 4
	}
}

func sign(d int) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

// SortTerms sorts ts in the standard order of terms, in place.
func SortTerms(ts []Term) {
	sort.SliceStable(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}

// Depth returns the nesting depth of t: constants and variables have depth
// 0; a compound has depth 1 + max depth of its arguments. The paper's
// matching "levels" are defined in terms of this depth (§2.2).
func Depth(t Term) int {
	c, ok := Deref(t).(*Compound)
	if !ok {
		return 0
	}
	max := 0
	for _, a := range c.Args {
		if d := Depth(a); d > max {
			max = d
		}
	}
	return 1 + max
}

// Size returns the number of nodes in t (variables and constants count 1,
// compounds count 1 plus their arguments).
func Size(t Term) int {
	c, ok := Deref(t).(*Compound)
	if !ok {
		return 1
	}
	n := 1
	for _, a := range c.Args {
		n += Size(a)
	}
	return n
}
