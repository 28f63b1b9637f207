// Package pif implements the Pseudo In-line Format of the paper's
// Appendix 1 (Table A1): the compiled argument representation that the FS2
// hardware walks during partial test unification.
//
// In PIF, each argument is an 8-bit type tag followed by a 24-bit content
// field (together one 32-bit word) with an optional 32-bit extension word.
// Facts and rule heads are compiled into PIF "ready for partial test
// unification" (§2.2); queries are compiled the same way with the
// query-side variable tags.
//
// Layout decisions the paper leaves open (documented substitutions):
//
//   - Nested complex terms inside an in-line complex term are encoded as
//     pointer words so the in-line run stays flat; pointer targets live in
//     a per-clause heap of words carried alongside the argument stream.
//   - An unterminated (tail-variable) list encodes its elements followed by
//     one variable word for the tail.
//   - A heap object is a count word (full arity), then for structures a
//     functor word, then the element words.
//   - In-line integers are 28-bit two's complement (4 tag nibble bits +
//     24 content bits), exactly the space Table A1 gives them.
package pif

import (
	"errors"
	"fmt"
	"strings"

	"clare/internal/symtab"
	"clare/internal/term"
)

// Tag is the 8-bit PIF type tag.
type Tag uint8

// Fixed tags from Table A1.
const (
	TagAnonVar Tag = 0x20 // anonymous variable
	TagSubDV   Tag = 0x24 // subsequent database variable
	TagSubQV   Tag = 0x25 // subsequent query variable
	TagFirstDV Tag = 0x26 // first-occurrence database variable
	TagFirstQV Tag = 0x27 // first-occurrence query variable

	TagAtomPtr  Tag = 0x08 // atom: content is a symbol table offset
	TagFloatPtr Tag = 0x09 // float: content is a symbol table offset

	// TagIntBase..TagIntBase|0x0F: integer in-line, low nibble is the most
	// significant nibble of the 28-bit value.
	TagIntBase Tag = 0x10
)

// Complex-term tag groups: the high 3 bits select the group, the low 5 bits
// carry the arity (1..31) for in-line forms.
const (
	GroupStructPtr    Tag = 0x40 // 010a aaaa
	GroupStructInline Tag = 0x60 // 011a aaaa
	GroupUListPtr     Tag = 0x80 // 100a aaaa (unterminated list pointer)
	GroupUListInline  Tag = 0xA0 // 101a aaaa (unterminated list in-line)
	GroupListPtr      Tag = 0xC0 // 110a aaaa (terminated list pointer)
	GroupListInline   Tag = 0xE0 // 111a aaaa (terminated list in-line)

	groupMask Tag = 0xE0
	arityMask Tag = 0x1F
)

// MaxInlineArity is the largest arity an in-line complex term can carry in
// its 5 arity bits.
const MaxInlineArity = 31

// MaxVarSlots bounds the distinct variables per clause or query: the TUE
// DB/Query memories are addressed by an 8-bit field (§3.3).
const MaxVarSlots = 256

// Integer in-line range: 28-bit two's complement.
const (
	MaxInlineInt = 1<<27 - 1
	MinInlineInt = -(1 << 27)
)

// Word is one 32-bit PIF word: tag in the top byte, content in the low 24
// bits.
type Word uint32

// MakeWord assembles a word from tag and 24-bit content.
func MakeWord(t Tag, content uint32) Word {
	return Word(uint32(t)<<24 | content&0xFFFFFF)
}

// Tag returns the word's type tag.
func (w Word) Tag() Tag { return Tag(w >> 24) }

// Content returns the word's 24-bit content field.
func (w Word) Content() uint32 { return uint32(w) & 0xFFFFFF }

// Category classifies tags the way Appendix 1 does: simple terms, variable
// terms and complex terms.
type Category uint8

const (
	CatSimple Category = iota
	CatVariable
	CatComplex
	CatInvalid
)

func (c Category) String() string {
	switch c {
	case CatSimple:
		return "simple"
	case CatVariable:
		return "variable"
	case CatComplex:
		return "complex"
	default:
		return "invalid"
	}
}

// CategoryOf returns the Appendix-1 category of a tag.
func CategoryOf(t Tag) Category {
	switch {
	case t == TagAnonVar, t == TagSubDV, t == TagSubQV, t == TagFirstDV, t == TagFirstQV:
		return CatVariable
	case t == TagAtomPtr, t == TagFloatPtr, t&0xF0 == Tag(TagIntBase):
		return CatSimple
	case t&0xC0 != 0:
		return CatComplex
	default:
		return CatInvalid
	}
}

// IsVariable reports whether t is one of the five variable tags.
func IsVariable(t Tag) bool { return CategoryOf(t) == CatVariable }

// VariableFree reports whether no word of an argument stream carries a
// variable tag, named or anonymous. It reads every word as a tagged word;
// a structure pointer's extension word (a bare heap offset) can only make
// the answer a conservative false.
func VariableFree(words []Word) bool {
	for _, w := range words {
		if t := w.Tag(); t == TagAnonVar || t&^3 == TagSubDV {
			return false
		}
	}
	return true
}

// IsInt reports whether t is an in-line integer tag.
func IsInt(t Tag) bool { return t&0xF0 == Tag(TagIntBase) }

// IsComplex reports whether t is a complex-term tag.
func IsComplex(t Tag) bool { return CategoryOf(t) == CatComplex }

// Group returns the complex-term group bits of t (meaningless for
// non-complex tags).
func Group(t Tag) Tag { return t & groupMask }

// InlineArity returns the arity bits of a complex tag.
func InlineArity(t Tag) int { return int(t & arityMask) }

// IsList reports whether t is one of the four list tags.
func IsList(t Tag) bool {
	g := Group(t)
	return g == GroupUListPtr || g == GroupUListInline || g == GroupListPtr || g == GroupListInline
}

// IsUnterminated reports whether t is an unterminated-list tag (the
// paper's "unlimited list": a list with a variable tail).
func IsUnterminated(t Tag) bool {
	g := Group(t)
	return g == GroupUListPtr || g == GroupUListInline
}

// IsStruct reports whether t is a structure tag.
func IsStruct(t Tag) bool {
	g := Group(t)
	return g == GroupStructPtr || g == GroupStructInline
}

// IsPointer reports whether t is a pointer-form complex tag.
func IsPointer(t Tag) bool {
	g := Group(t)
	return g == GroupStructPtr || g == GroupUListPtr || g == GroupListPtr
}

// TagName returns a human-readable tag name (for disassembly).
func TagName(t Tag) string {
	switch t {
	case TagAnonVar:
		return "AnonVar"
	case TagSubDV:
		return "SubDV"
	case TagSubQV:
		return "SubQV"
	case TagFirstDV:
		return "FirstDV"
	case TagFirstQV:
		return "FirstQV"
	case TagAtomPtr:
		return "AtomPtr"
	case TagFloatPtr:
		return "FloatPtr"
	}
	if IsInt(t) {
		return "IntInline"
	}
	switch Group(t) {
	case GroupStructPtr:
		return fmt.Sprintf("StructPtr/%d", InlineArity(t))
	case GroupStructInline:
		return fmt.Sprintf("StructInline/%d", InlineArity(t))
	case GroupUListPtr:
		return fmt.Sprintf("UListPtr/%d", InlineArity(t))
	case GroupUListInline:
		return fmt.Sprintf("UListInline/%d", InlineArity(t))
	case GroupListPtr:
		return fmt.Sprintf("ListPtr/%d", InlineArity(t))
	case GroupListInline:
		return fmt.Sprintf("ListInline/%d", InlineArity(t))
	}
	return fmt.Sprintf("Tag(0x%02x)", uint8(t))
}

// Side selects the variable tag family used while encoding: clauses from
// the data/knowledge base use DB tags, queries use query tags.
type Side uint8

const (
	// DBSide encodes data/knowledge-base clauses (FirstDV/SubDV).
	DBSide Side = iota
	// QuerySide encodes queries (FirstQV/SubQV).
	QuerySide
)

func (s Side) firstTag() Tag {
	if s == QuerySide {
		return TagFirstQV
	}
	return TagFirstDV
}

func (s Side) subTag() Tag {
	if s == QuerySide {
		return TagSubQV
	}
	return TagSubDV
}

// Encoded is a compiled PIF term: the flat argument stream plus the heap of
// pointer targets.
type Encoded struct {
	Functor string
	Arity   int
	Args    []Word // flat top-level stream, in-line elements included
	Heap    []Word // pointer targets
	NumVars int    // distinct named variables (slots 0..NumVars-1)
	// VarNames maps slot -> source variable name (decode support).
	VarNames []string
	Side     Side
}

// SizeBytes is the clause's size as streamed from disk: 4 bytes per word.
func (e *Encoded) SizeBytes() int { return 4 * (len(e.Args) + len(e.Heap)) }

// Indicator returns "functor/arity" for the encoded clause.
func (e *Encoded) Indicator() string { return fmt.Sprintf("%s/%d", e.Functor, e.Arity) }

// String disassembles the encoded term.
func (e *Encoded) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d vars=%d\n", e.Functor, e.Arity, e.NumVars)
	for i, w := range e.Args {
		fmt.Fprintf(&b, "  arg[%02d] %-14s content=%d\n", i, TagName(w.Tag()), w.Content())
	}
	for i, w := range e.Heap {
		fmt.Fprintf(&b, " heap[%02d] %-14s content=%d\n", i, TagName(w.Tag()), w.Content())
	}
	return b.String()
}

// Encoder compiles terms to PIF against a shared symbol table.
type Encoder struct {
	Symbols *symtab.Table
}

// NewEncoder returns an encoder interning into symbols.
func NewEncoder(symbols *symtab.Table) *Encoder { return &Encoder{Symbols: symbols} }

// Errors.
var (
	ErrTooManyVars = errors.New("pif: clause exceeds the variable slot limit")
	ErrIntRange    = errors.New("pif: integer outside the 28-bit in-line range")
	ErrNotCallable = errors.New("pif: term is not callable")
)

// encodeState tracks variable slot assignment during one encoding.
type encodeState struct {
	enc      *Encoder
	side     Side
	slots    map[*term.Var]int
	varNames []string
	heap     []Word
}

// Encode compiles a callable term (a fact, rule head or query goal) to PIF.
func (enc *Encoder) Encode(t term.Term, side Side) (*Encoded, error) {
	t = term.Deref(t)
	var functor string
	var args []term.Term
	switch t := t.(type) {
	case term.Atom:
		functor = string(t)
	case *term.Compound:
		functor, args = t.Functor, t.Args
	default:
		return nil, fmt.Errorf("%w: %v", ErrNotCallable, t)
	}

	st := &encodeState{enc: enc, side: side, slots: make(map[*term.Var]int)}
	var words []Word
	for _, a := range args {
		ws, err := st.encodeArg(a)
		if err != nil {
			return nil, err
		}
		words = append(words, ws...)
	}
	return &Encoded{
		Functor:  functor,
		Arity:    len(args),
		Args:     words,
		Heap:     st.heap,
		NumVars:  len(st.varNames),
		VarNames: st.varNames,
		Side:     side,
	}, nil
}

// encodeArg encodes one argument as a word run (1 word for simple/variable/
// pointer forms, 1+N for in-line complex forms).
func (st *encodeState) encodeArg(t term.Term) ([]Word, error) {
	t = term.Deref(t)
	switch t := t.(type) {
	case *term.Var:
		return st.encodeVar(t)
	case term.Atom:
		return []Word{MakeWord(TagAtomPtr, uint32(st.enc.Symbols.Atom(string(t))))}, nil
	case term.Float:
		return []Word{MakeWord(TagFloatPtr, uint32(st.enc.Symbols.Float(float64(t))))}, nil
	case term.Int:
		if t < MinInlineInt || t > MaxInlineInt {
			return nil, fmt.Errorf("%w: %d", ErrIntRange, int64(t))
		}
		v := uint32(int32(t)) & 0x0FFFFFFF
		tag := Tag(TagIntBase) | Tag(v>>24)
		return []Word{MakeWord(tag, v&0xFFFFFF)}, nil
	case *term.Compound:
		return st.encodeComplex(t)
	}
	return nil, fmt.Errorf("pif: cannot encode %v", t)
}

func (st *encodeState) encodeVar(v *term.Var) ([]Word, error) {
	if v.Name == "_" {
		return []Word{MakeWord(TagAnonVar, 0)}, nil
	}
	if slot, seen := st.slots[v]; seen {
		return []Word{MakeWord(st.side.subTag(), uint32(slot))}, nil
	}
	slot := len(st.varNames)
	if slot >= MaxVarSlots {
		return nil, ErrTooManyVars
	}
	st.slots[v] = slot
	st.varNames = append(st.varNames, v.Name)
	return []Word{MakeWord(st.side.firstTag(), uint32(slot))}, nil
}

func (st *encodeState) encodeComplex(c *term.Compound) ([]Word, error) {
	if _, _, ok := term.IsCons(c); ok {
		return st.encodeList(c)
	}
	arity := len(c.Args)
	fun := uint32(st.enc.Symbols.Atom(c.Functor))
	if arity > MaxInlineArity {
		// Structure pointer: content = functor, extension = heap offset.
		off, err := st.heapStruct(c)
		if err != nil {
			return nil, err
		}
		return []Word{MakeWord(GroupStructPtr, fun), Word(off)}, nil
	}
	words := []Word{MakeWord(GroupStructInline|Tag(arity), fun)}
	for _, a := range c.Args {
		ws, err := st.encodeElement(a)
		if err != nil {
			return nil, err
		}
		words = append(words, ws...)
	}
	return words, nil
}

func (st *encodeState) encodeList(c *term.Compound) ([]Word, error) {
	elems, tail := term.ListSlice(c)
	unterminated := tail != term.NilAtom
	if unterminated {
		if _, isVar := tail.(*term.Var); !isVar {
			return nil, fmt.Errorf("pif: improper list with non-variable tail %v", tail)
		}
	}
	if len(elems) > MaxInlineArity {
		off, err := st.heapList(elems, tail, unterminated)
		if err != nil {
			return nil, err
		}
		g := GroupListPtr
		if unterminated {
			g = GroupUListPtr
		}
		return []Word{MakeWord(g, off)}, nil
	}
	g := GroupListInline
	if unterminated {
		g = GroupUListInline
	}
	words := []Word{MakeWord(g|Tag(len(elems)), 0)}
	for _, e := range elems {
		ws, err := st.encodeElement(e)
		if err != nil {
			return nil, err
		}
		words = append(words, ws...)
	}
	if unterminated {
		tw, err := st.encodeVar(term.Deref(tail).(*term.Var))
		if err != nil {
			return nil, err
		}
		words = append(words, tw[0])
	}
	return words, nil
}

// encodeElement encodes a constituent of an in-line complex term: simple
// terms and variables in place (one word), nested lists as one pointer
// word, nested structures as a pointer word plus its extension word.
// Walkers step element-by-element using WordLen to skip extensions.
func (st *encodeState) encodeElement(t term.Term) ([]Word, error) {
	t = term.Deref(t)
	if c, ok := t.(*term.Compound); ok {
		if _, _, isList := term.IsCons(c); isList {
			elems, tail := term.ListSlice(c)
			unterminated := tail != term.NilAtom
			if unterminated {
				if _, isVar := tail.(*term.Var); !isVar {
					return nil, fmt.Errorf("pif: improper list with non-variable tail %v", tail)
				}
			}
			off, err := st.heapList(elems, tail, unterminated)
			if err != nil {
				return nil, err
			}
			g := GroupListPtr
			if unterminated {
				g = GroupUListPtr
			}
			arityBits := Tag(0)
			if len(elems) <= MaxInlineArity {
				arityBits = Tag(len(elems))
			}
			return []Word{MakeWord(g|arityBits, off)}, nil
		}
		off, err := st.heapStruct(c)
		if err != nil {
			return nil, err
		}
		arityBits := Tag(0)
		if len(c.Args) <= MaxInlineArity {
			arityBits = Tag(len(c.Args))
		}
		fun := uint32(st.enc.Symbols.Atom(c.Functor))
		return []Word{MakeWord(GroupStructPtr|arityBits, fun), Word(off)}, nil
	}
	return st.encodeArg(t)
}

// WordLen returns the number of words an element occupies in a run given
// its leading tag: structure pointers carry a one-word extension.
func WordLen(t Tag) int {
	if Group(t) == GroupStructPtr {
		return 2
	}
	return 1
}

// heapStruct stores a structure in the heap: count word, functor word,
// then the element words. Nested objects are emitted first so the parent
// stays contiguous. Returns the parent's heap offset.
func (st *encodeState) heapStruct(c *term.Compound) (uint32, error) {
	var elemWords []Word
	for _, a := range c.Args {
		ws, err := st.encodeElement(a)
		if err != nil {
			return 0, err
		}
		elemWords = append(elemWords, ws...)
	}
	off := uint32(len(st.heap))
	st.heap = append(st.heap, Word(len(c.Args)),
		MakeWord(TagAtomPtr, uint32(st.enc.Symbols.Atom(c.Functor))))
	st.heap = append(st.heap, elemWords...)
	return off, nil
}

// heapList stores a list in the heap: count word, element words, then the
// tail variable word for unterminated lists.
func (st *encodeState) heapList(elems []term.Term, tail term.Term, unterminated bool) (uint32, error) {
	var elemWords []Word
	for _, e := range elems {
		ws, err := st.encodeElement(e)
		if err != nil {
			return 0, err
		}
		elemWords = append(elemWords, ws...)
	}
	if unterminated {
		tw, err := st.encodeVar(term.Deref(tail).(*term.Var))
		if err != nil {
			return 0, err
		}
		elemWords = append(elemWords, tw[0])
	}
	off := uint32(len(st.heap))
	st.heap = append(st.heap, Word(len(elems)))
	st.heap = append(st.heap, elemWords...)
	return off, nil
}
