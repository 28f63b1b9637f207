package pif

import (
	"errors"
	"fmt"
	"strconv"

	"clare/internal/symtab"
	"clare/internal/term"
)

// ClauseFunctor wraps head and body in a stored clause's full encoding:
// ':-'(Head, Body), Body the atom true for a fact.
const ClauseFunctor = ":-"

// errWordReuse rejects an encoding whose pointers do not form a tree. The
// encoder stores every heap object once and points at it once, so a walk
// reads each word at most once; a cyclic or shared heap would otherwise
// never end, or expand without bound.
var errWordReuse = errors.New("heap words referenced more than once")

// AppendClause appends the source form of the stored clause e — a
// ':-'(Head, Body) encoding — to dst: "Head." when Body is the atom true,
// "Head :- Body." otherwise. The bytes are those of printing Decode's
// result with package term (compounds in functional notation, the control
// operators , ; -> :- infix and parenthesised, lists in bracket notation,
// every anonymous variable a fresh _G<id>), but no term is built: the
// words are walked in place. It fails wherever Decode fails, and then
// returns dst unchanged.
func AppendClause(dst []byte, syms *symtab.Table, e *Encoded) ([]byte, error) {
	if e.Functor != ClauseFunctor || e.Arity != 2 {
		return dst, fmt.Errorf("pif: %s/%d is not a clause record", e.Functor, e.Arity)
	}
	r := renderer{syms: syms, e: e, budget: len(e.Args) + len(e.Heap)}
	out, pos, err := r.term(dst, e.Args, 0, false)
	if err == nil {
		out, pos, err = r.body(out, pos)
	}
	if err == nil && pos != len(e.Args) {
		err = fmt.Errorf("%d trailing words", len(e.Args)-pos)
	}
	if err != nil {
		return dst, fmt.Errorf("pif: rendering clause: %w", err)
	}
	return append(out, '.'), nil
}

// renderer is one AppendClause walk.
type renderer struct {
	syms   *symtab.Table
	e      *Encoded
	budget int // words the walk may still read
	// ids gives a named slot whose source name does not print (a
	// machine-generated variable) one _G id for all its occurrences;
	// allocated when the first such slot is met.
	ids []uint64
}

// body appends " :- Body" for the body at e.Args[pos], nothing for true.
func (r *renderer) body(dst []byte, pos int) ([]byte, int, error) {
	if pos < len(r.e.Args) && r.e.Args[pos].Tag() == TagAtomPtr {
		name, err := r.syms.Name(symtab.Ref(r.e.Args[pos].Content()))
		if err != nil {
			return nil, 0, err
		}
		if name == "true" {
			if r.budget--; r.budget < 0 {
				return nil, 0, errWordReuse
			}
			return dst, pos + 1, nil
		}
	}
	return r.term(append(dst, " :- "...), r.e.Args, pos, false)
}

// term appends the term starting at words[pos] and returns the index of
// the next word: an in-line object ends where its elements end, a pointer
// after the pointer (its elements are in the heap). With cont set the term is the tail of a list whose
// elements are already written: [] closes the bracket, a list carries on
// inside it, anything else goes after a '|'.
func (r *renderer) term(dst []byte, words []Word, pos int, cont bool) ([]byte, int, error) {
	if r.budget--; r.budget < 0 {
		return nil, 0, errWordReuse
	}
	if pos >= len(words) {
		return nil, 0, fmt.Errorf("truncated stream at word %d", pos)
	}
	w := words[pos]
	tag := w.Tag()
	var err error
	switch {
	case tag == TagAtomPtr:
		name, bare, err := r.syms.AtomText(symtab.Ref(w.Content()))
		if err != nil {
			return nil, 0, err
		}
		return appendAtom(dst, name, bare, cont), pos + 1, nil

	case IsList(tag):
		in, p, n := words, pos+1, InlineArity(tag)
		if IsPointer(tag) {
			if in, p, n, err = heapObject(r.e.Heap, w.Content(), 1); err != nil {
				return nil, 0, err
			}
		}
		dst, end, err := r.list(dst, in, p, n, IsUnterminated(tag), cont)
		if IsPointer(tag) {
			end = pos + 1
		}
		return dst, end, err

	case IsStruct(tag):
		in, p, n, fun := words, pos+1, InlineArity(tag), w.Content()
		if IsPointer(tag) {
			if pos+1 >= len(words) {
				return nil, 0, fmt.Errorf("structure pointer missing extension at word %d", pos)
			}
			if in, p, n, err = heapObject(r.e.Heap, uint32(words[pos+1]), 2); err != nil {
				return nil, 0, err
			}
			fun = in[p-1].Content()
		}
		name, bare, err := r.syms.AtomText(symtab.Ref(fun))
		if err != nil {
			return nil, 0, err
		}
		end := p
		switch {
		case n == 0:
			dst = appendAtom(dst, name, bare, cont)
		case n == 2 && name == term.ConsFunctor:
			dst, end, err = r.list(dst, in, p, 1, true, cont)
		default:
			if cont {
				dst = append(dst, '|')
			}
			if dst, end, err = r.structure(dst, name, bare, in, p, n); cont {
				dst = append(dst, ']')
			}
		}
		if IsPointer(tag) {
			end = pos + 2
		}
		return dst, end, err
	}

	if cont {
		dst = append(dst, '|')
	}
	switch {
	case tag == TagAnonVar:
		dst = term.AppendVarName(dst, "", term.NextVarID())
	case IsVariable(tag):
		dst, err = r.variable(dst, int(w.Content()))
	case tag == TagFloatPtr:
		var v float64
		if v, err = r.syms.FloatValue(symtab.Ref(w.Content())); err == nil {
			dst = term.AppendFloat(dst, v)
		}
	case IsInt(tag):
		dst = strconv.AppendInt(dst, int64(inlineInt(w)), 10)
	default:
		err = fmt.Errorf("invalid tag 0x%02x at word %d", uint8(tag), pos)
	}
	if cont {
		dst = append(dst, ']')
	}
	return dst, pos + 1, err
}

// appendAtom writes an atom, or as a list tail closes the bracket: "]"
// for [], "|name]" otherwise.
func appendAtom(dst []byte, name string, bare, cont bool) []byte {
	if cont {
		if name == string(term.NilAtom) {
			return append(dst, ']')
		}
		dst = append(dst, '|')
	}
	if bare {
		dst = append(dst, name...)
	} else {
		dst = term.AppendAtom(dst, name)
	}
	if cont {
		dst = append(dst, ']')
	}
	return dst
}

// variable appends the name of the named slot.
func (r *renderer) variable(dst []byte, slot int) ([]byte, error) {
	if slot >= r.e.NumVars {
		return nil, fmt.Errorf("variable slot %d out of range (%d slots)", slot, r.e.NumVars)
	}
	name := "_V"
	if slot < len(r.e.VarNames) {
		name = r.e.VarNames[slot]
	}
	var id uint64
	if name == "" || name == "_" {
		if r.ids == nil {
			r.ids = make([]uint64, r.e.NumVars)
		}
		if r.ids[slot] == 0 {
			r.ids[slot] = term.NextVarID()
		}
		id = r.ids[slot]
	}
	return term.AppendVarName(dst, name, id), nil
}

// heapObject locates the heap object at off — a count word, header-1
// further words (a structure's functor), then the count's elements — and
// returns the heap, the index of its first element and the count.
func heapObject(heap []Word, off uint32, header int) ([]Word, int, int, error) {
	if uint64(off)+uint64(header) > uint64(len(heap)) {
		return nil, 0, 0, fmt.Errorf("heap offset %d out of range", off)
	}
	p := int(off) + header
	// Every element is at least one word.
	if uint64(heap[off]) > uint64(len(heap)-p) {
		return nil, 0, 0, fmt.Errorf("heap object at %d claims %d elements, %d words left", off, uint32(heap[off]), len(heap)-p)
	}
	return heap, p, int(heap[off]), nil
}

// inlineInt is the 28-bit two's complement value of an integer word.
func inlineInt(w Word) int32 { return int32(uint32(w)<<4) >> 4 }

// structure appends name(arg,...) for the n >= 1 arguments starting at
// in[p]; a binary control operator goes infix in parentheses.
func (r *renderer) structure(dst []byte, name string, bare bool, in []Word, p, n int) ([]byte, int, error) {
	infix := n == 2 && term.ControlOp(name)
	if !infix {
		dst = appendAtom(dst, name, bare, false)
	}
	dst = append(dst, '(')
	var err error
	for i := 0; i < n; i++ {
		if i > 0 {
			if infix {
				dst = append(dst, name...)
			} else {
				dst = append(dst, ',')
			}
		}
		if dst, p, err = r.term(dst, in, p, false); err != nil {
			return nil, 0, err
		}
	}
	return append(dst, ')'), p, nil
}

// list appends the n elements starting at in[p] and then the tail: the
// term after them when unterminated, [] otherwise. cont says the
// enclosing list's bracket is open and these elements join it.
func (r *renderer) list(dst []byte, in []Word, p, n int, unterminated, cont bool) ([]byte, int, error) {
	if n == 0 {
		if unterminated {
			return r.term(dst, in, p, cont)
		}
		return appendAtom(dst, string(term.NilAtom), true, cont), p, nil
	}
	var err error
	for i := 0; i < n; i++ {
		if i > 0 || cont {
			dst = append(dst, ',')
		} else {
			dst = append(dst, '[')
		}
		if dst, p, err = r.term(dst, in, p, false); err != nil {
			return nil, 0, err
		}
	}
	if unterminated {
		return r.term(dst, in, p, true)
	}
	return append(dst, ']'), p, nil
}
