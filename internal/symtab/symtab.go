// Package symtab implements the symbol table used throughout the CLARE
// reproduction.
//
// In the paper's Pseudo In-line Format (PIF, Table A1) the content field of
// an atom or float argument is a "symbol table offset": a hashed reference
// into a shared table of interned symbols. Equality of two interned symbols
// is therefore a single integer comparison, which is exactly what the FS2
// hardware comparator performs. This package provides that table for both
// the software Prolog substrate and the simulated hardware.
package symtab

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"clare/internal/term"
)

// Ref is a symbol table offset. Refs are dense, start at 1 and are stable
// for the lifetime of the table. Ref 0 is reserved as "no symbol".
type Ref uint32

// NoRef is the zero Ref; it never names a symbol.
const NoRef Ref = 0

// Kind distinguishes the symbol namespaces kept in one table.
type Kind uint8

const (
	// KindAtom is an atom constant (also used for functor names).
	KindAtom Kind = iota
	// KindFloat is a floating point constant. The paper stores floats in
	// the symbol table and compares their table offsets (Figure 1 case 2).
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindAtom:
		return "atom"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

type entry struct {
	kind Kind
	// bare records, once at intern time, that the atom prints without
	// quotes (term.AtomBare). It sits in the padding beside kind.
	bare bool
	name string  // valid when kind == KindAtom
	fval float64 // valid when kind == KindFloat
}

// Table is a concurrency-safe interning symbol table.
//
// The zero value is not ready for use; call New.
type Table struct {
	mu      sync.RWMutex
	atoms   map[string]Ref
	floats  map[uint64]Ref // keyed by IEEE-754 bits so -0.0 and 0.0 differ
	entries []entry        // entries[ref-1]
}

// New returns an empty symbol table.
func New() *Table {
	return &Table{
		atoms:  make(map[string]Ref),
		floats: make(map[uint64]Ref),
	}
}

// Atom interns name and returns its Ref. Repeated calls with the same name
// return the same Ref.
func (t *Table) Atom(name string) Ref {
	t.mu.RLock()
	r, ok := t.atoms[name]
	t.mu.RUnlock()
	if ok {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.atoms[name]; ok {
		return r
	}
	t.entries = append(t.entries, entry{kind: KindAtom, bare: term.AtomBare(name), name: name})
	r = Ref(len(t.entries))
	t.atoms[name] = r
	return r
}

// Float interns v and returns its Ref. NaNs are collapsed to a single
// canonical NaN so that interning is a function of the value.
func (t *Table) Float(v float64) Ref {
	bits := math.Float64bits(v)
	if v != v { // NaN
		bits = math.Float64bits(math.NaN())
		v = math.NaN()
	}
	t.mu.RLock()
	r, ok := t.floats[bits]
	t.mu.RUnlock()
	if ok {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.floats[bits]; ok {
		return r
	}
	t.entries = append(t.entries, entry{kind: KindFloat, fval: v})
	r = Ref(len(t.entries))
	t.floats[bits] = r
	return r
}

// LookupAtom returns the Ref for name without interning it. The second
// result reports whether the atom is present.
func (t *Table) LookupAtom(name string) (Ref, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.atoms[name]
	return r, ok
}

// Kind returns the namespace of r.
func (t *Table) Kind(r Ref) (Kind, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, err := t.entry(r); err != nil {
		return 0, err
	} else {
		return e.kind, nil
	}
}

// Name returns the atom text for r. It is an error if r is not an atom.
func (t *Table) Name(r Ref) (string, error) {
	name, _, err := t.AtomText(r)
	return name, err
}

// AtomText is Name plus whether the atom prints without quotes, so a
// printer need not rescan the text at every occurrence.
func (t *Table) AtomText(r Ref) (name string, bare bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, err := t.entry(r)
	if err != nil {
		return "", false, err
	}
	if e.kind != KindAtom {
		return "", false, fmt.Errorf("symtab: ref %d is a %s, not an atom", r, e.kind)
	}
	return e.name, e.bare, nil
}

// FloatValue returns the float for r. It is an error if r is not a float.
func (t *Table) FloatValue(r Ref) (float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, err := t.entry(r)
	if err != nil {
		return 0, err
	}
	if e.kind != KindFloat {
		return 0, fmt.Errorf("symtab: ref %d is a %s, not a float", r, e.kind)
	}
	return e.fval, nil
}

// MustName is Name but panics on error; for symbols the caller created.
func (t *Table) MustName(r Ref) string {
	s, err := t.Name(r)
	if err != nil {
		panic(err)
	}
	return s
}

// MustFloat is FloatValue but panics on error.
func (t *Table) MustFloat(r Ref) float64 {
	v, err := t.FloatValue(r)
	if err != nil {
		panic(err)
	}
	return v
}

// Len reports the number of interned symbols.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Atoms returns all interned atom names in sorted order. Intended for
// diagnostics and tests.
func (t *Table) Atoms() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.atoms))
	for name := range t.atoms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (t *Table) entry(r Ref) (entry, error) {
	if r == NoRef || int(r) > len(t.entries) {
		return entry{}, fmt.Errorf("symtab: ref %d out of range (table has %d entries)", r, len(t.entries))
	}
	return t.entries[r-1], nil
}
