package pif

import (
	"fmt"

	"clare/internal/symtab"
	"clare/internal/term"
)

// Decoder reconstructs terms from PIF against the symbol table used at
// encode time. Decoding is used by the software search mode (the CRS doing
// everything itself, §2.2 mode (a)) and by the test suite's round-trip
// properties.
type Decoder struct {
	Symbols *symtab.Table
}

// NewDecoder returns a decoder resolving symbols from symbols.
func NewDecoder(symbols *symtab.Table) *Decoder { return &Decoder{Symbols: symbols} }

type decodeState struct {
	d      *Decoder
	e      *Encoded
	vars   []*term.Var // slot -> variable
	budget int         // words the walk may still read (see errWordReuse)
}

// Decode reconstructs the callable term from e. Variables regain their
// source names; each anonymous-variable word becomes a fresh variable.
func (d *Decoder) Decode(e *Encoded) (term.Term, error) {
	st := &decodeState{d: d, e: e, vars: make([]*term.Var, e.NumVars), budget: len(e.Args) + len(e.Heap)}
	args := make([]term.Term, 0, e.Arity)
	pos := 0
	for i := 0; i < e.Arity; i++ {
		t, next, err := st.decodeAt(e.Args, pos)
		if err != nil {
			return nil, fmt.Errorf("pif: decoding arg %d of %s/%d: %w", i, e.Functor, e.Arity, err)
		}
		args = append(args, t)
		pos = next
	}
	if pos != len(e.Args) {
		return nil, fmt.Errorf("pif: %d trailing words after %s/%d", len(e.Args)-pos, e.Functor, e.Arity)
	}
	return term.New(e.Functor, args...), nil
}

// decodeAt decodes the term starting at words[pos], returning it and the
// index of the next word.
func (st *decodeState) decodeAt(words []Word, pos int) (term.Term, int, error) {
	if st.budget--; st.budget < 0 {
		return nil, 0, errWordReuse
	}
	if pos >= len(words) {
		return nil, 0, fmt.Errorf("truncated stream at word %d", pos)
	}
	w := words[pos]
	tag := w.Tag()

	switch {
	case tag == TagAnonVar:
		return term.NewVar("_"), pos + 1, nil

	case IsVariable(tag):
		slot := int(w.Content())
		if slot >= len(st.vars) {
			return nil, 0, fmt.Errorf("variable slot %d out of range (%d slots)", slot, len(st.vars))
		}
		if st.vars[slot] == nil {
			name := "_V"
			if slot < len(st.e.VarNames) {
				name = st.e.VarNames[slot]
			}
			st.vars[slot] = term.NewVar(name)
		}
		return st.vars[slot], pos + 1, nil

	case tag == TagAtomPtr:
		name, err := st.d.Symbols.Name(symtab.Ref(w.Content()))
		if err != nil {
			return nil, 0, err
		}
		return term.Atom(name), pos + 1, nil

	case tag == TagFloatPtr:
		v, err := st.d.Symbols.FloatValue(symtab.Ref(w.Content()))
		if err != nil {
			return nil, 0, err
		}
		return term.Float(v), pos + 1, nil

	case IsInt(tag):
		return term.Int(inlineInt(w)), pos + 1, nil

	case Group(tag) == GroupStructInline:
		arity := InlineArity(tag)
		name, err := st.d.Symbols.Name(symtab.Ref(w.Content()))
		if err != nil {
			return nil, 0, err
		}
		args := make([]term.Term, 0, arity)
		p := pos + 1
		for i := 0; i < arity; i++ {
			var a term.Term
			a, p, err = st.decodeAt(words, p)
			if err != nil {
				return nil, 0, err
			}
			args = append(args, a)
		}
		return term.New(name, args...), p, nil

	case Group(tag) == GroupListInline, Group(tag) == GroupUListInline:
		arity := InlineArity(tag)
		elems := make([]term.Term, 0, arity)
		p := pos + 1
		var err error
		for i := 0; i < arity; i++ {
			var e term.Term
			e, p, err = st.decodeAt(words, p)
			if err != nil {
				return nil, 0, err
			}
			elems = append(elems, e)
		}
		tail := term.Term(term.NilAtom)
		if Group(tag) == GroupUListInline {
			tail, p, err = st.decodeAt(words, p)
			if err != nil {
				return nil, 0, err
			}
		}
		return term.ListTail(tail, elems...), p, nil

	case Group(tag) == GroupStructPtr:
		if pos+1 >= len(words) {
			return nil, 0, fmt.Errorf("structure pointer missing extension at word %d", pos)
		}
		off := uint32(words[pos+1])
		t, err := st.decodeHeapStruct(off)
		if err != nil {
			return nil, 0, err
		}
		return t, pos + 2, nil

	case Group(tag) == GroupListPtr, Group(tag) == GroupUListPtr:
		t, err := st.decodeHeapList(w.Content(), Group(tag) == GroupUListPtr)
		if err != nil {
			return nil, 0, err
		}
		return t, pos + 1, nil
	}
	return nil, 0, fmt.Errorf("invalid tag 0x%02x at word %d", uint8(tag), pos)
}

func (st *decodeState) decodeHeapStruct(off uint32) (term.Term, error) {
	heap, p, arity, err := heapObject(st.e.Heap, off, 2)
	if err != nil {
		return nil, err
	}
	name, err := st.d.Symbols.Name(symtab.Ref(heap[p-1].Content()))
	if err != nil {
		return nil, err
	}
	args := make([]term.Term, 0, arity)
	for i := 0; i < arity; i++ {
		var a term.Term
		a, p, err = st.decodeAt(heap, p)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return term.New(name, args...), nil
}

func (st *decodeState) decodeHeapList(off uint32, unterminated bool) (term.Term, error) {
	heap, p, n, err := heapObject(st.e.Heap, off, 1)
	if err != nil {
		return nil, err
	}
	elems := make([]term.Term, 0, n)
	for i := 0; i < n; i++ {
		var e term.Term
		e, p, err = st.decodeAt(heap, p)
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	tail := term.Term(term.NilAtom)
	if unterminated {
		tail, _, err = st.decodeAt(heap, p)
		if err != nil {
			return nil, err
		}
	}
	return term.ListTail(tail, elems...), nil
}
