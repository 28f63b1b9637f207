package pif

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"clare/internal/parse"
	"clare/internal/symtab"
	"clare/internal/term"
	"clare/internal/unify"
)

func encDec(t *testing.T) (*Encoder, *Decoder) {
	t.Helper()
	syms := symtab.New()
	return NewEncoder(syms), NewDecoder(syms)
}

// TestTableA1TagValues pins the tag constants to the exact values in the
// paper's Appendix 1, Table A1.
func TestTableA1TagValues(t *testing.T) {
	cases := []struct {
		name string
		got  Tag
		want uint8
	}{
		{"Anonymous Var", TagAnonVar, 0x20},
		{"First Query Var", TagFirstQV, 0x27},
		{"Subsequent Query Var", TagSubQV, 0x25},
		{"First DB Var", TagFirstDV, 0x26},
		{"Subsequent DB Var", TagSubDV, 0x24},
		{"Atom Pointer", TagAtomPtr, 0x08},
		{"Float Pointer", TagFloatPtr, 0x09},
		{"Integer In-line base", Tag(TagIntBase), 0x10},
		{"Structure In-line group (011x xxxx)", GroupStructInline, 0x60},
		{"Structure Pointer group (010x xxxx)", GroupStructPtr, 0x40},
		{"Terminated List In-line group (111x xxxx)", GroupListInline, 0xE0},
		{"Unterminated List In-line group (101x xxxx)", GroupUListInline, 0xA0},
		{"Terminated List Pointer group (110x xxxx)", GroupListPtr, 0xC0},
		{"Unterminated List Pointer group (100x xxxx)", GroupUListPtr, 0x80},
	}
	for _, c := range cases {
		if uint8(c.got) != c.want {
			t.Errorf("%s: tag = 0x%02x, want 0x%02x", c.name, uint8(c.got), c.want)
		}
	}
}

func TestCategoriesMatchAppendix(t *testing.T) {
	// Appendix 1 divides types into variables, simple terms, complex terms.
	varTags := []Tag{TagAnonVar, TagFirstQV, TagSubQV, TagFirstDV, TagSubDV}
	for _, tag := range varTags {
		if CategoryOf(tag) != CatVariable {
			t.Errorf("tag 0x%02x should be variable", uint8(tag))
		}
	}
	simple := []Tag{TagAtomPtr, TagFloatPtr, Tag(TagIntBase), Tag(TagIntBase) | 0x0F}
	for _, tag := range simple {
		if CategoryOf(tag) != CatSimple {
			t.Errorf("tag 0x%02x should be simple", uint8(tag))
		}
	}
	complexTags := []Tag{
		GroupStructInline | 3, GroupStructPtr, GroupListInline | 1,
		GroupUListInline | 2, GroupListPtr | 4, GroupUListPtr,
	}
	for _, tag := range complexTags {
		if CategoryOf(tag) != CatComplex {
			t.Errorf("tag 0x%02x should be complex", uint8(tag))
		}
	}
}

func TestEncodeGroundFact(t *testing.T) {
	enc, _ := encDec(t)
	e, err := enc.Encode(parse.MustTerm("likes(mary, 42)"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if e.Functor != "likes" || e.Arity != 2 {
		t.Fatalf("indicator = %s", e.Indicator())
	}
	if len(e.Args) != 2 || len(e.Heap) != 0 {
		t.Fatalf("words = %d args %d heap", len(e.Args), len(e.Heap))
	}
	if e.Args[0].Tag() != TagAtomPtr {
		t.Errorf("arg0 tag = %s", TagName(e.Args[0].Tag()))
	}
	if !IsInt(e.Args[1].Tag()) {
		t.Errorf("arg1 tag = %s", TagName(e.Args[1].Tag()))
	}
}

func TestVariableTagsPerSide(t *testing.T) {
	enc, _ := encDec(t)
	q := parse.MustTerm("p(X, Y, X, _)")
	eq, err := enc.Encode(q, QuerySide)
	if err != nil {
		t.Fatal(err)
	}
	wantQ := []Tag{TagFirstQV, TagFirstQV, TagSubQV, TagAnonVar}
	for i, w := range eq.Args {
		if w.Tag() != wantQ[i] {
			t.Errorf("query arg %d tag = %s, want %s", i, TagName(w.Tag()), TagName(wantQ[i]))
		}
	}
	// First and subsequent occurrences share the content (slot) field —
	// "the subsequent occurrences and the first occurrence of a variable
	// have the same content field" (§3.1).
	if eq.Args[0].Content() != eq.Args[2].Content() {
		t.Error("first/subsequent occurrence content fields differ")
	}
	if eq.NumVars != 2 {
		t.Errorf("NumVars = %d, want 2", eq.NumVars)
	}

	ec, err := enc.Encode(parse.MustTerm("p(A, A)"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Args[0].Tag() != TagFirstDV || ec.Args[1].Tag() != TagSubDV {
		t.Errorf("db var tags = %s, %s", TagName(ec.Args[0].Tag()), TagName(ec.Args[1].Tag()))
	}
}

func TestIntegerInlineEncoding(t *testing.T) {
	enc, dec := encDec(t)
	for _, v := range []int64{0, 1, -1, 1000, -1000, MaxInlineInt, MinInlineInt} {
		e, err := enc.Encode(term.New("i", term.Int(v)), DBSide)
		if err != nil {
			t.Fatalf("encode %d: %v", v, err)
		}
		got, err := dec.Decode(e)
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		if got.(*term.Compound).Args[0] != term.Int(v) {
			t.Errorf("round trip %d = %v", v, got)
		}
	}
	// Out of range must error, not truncate.
	if _, err := enc.Encode(term.New("i", term.Int(MaxInlineInt+1)), DBSide); err == nil {
		t.Error("out-of-range int should fail to encode")
	}
	// The tag nibble is the value's most significant nibble (Table A1).
	e, _ := enc.Encode(term.New("i", term.Int(0x0ABCDEF)), DBSide)
	w := e.Args[0]
	if w.Tag() != Tag(TagIntBase)|0x0 || w.Content() != 0xABCDEF {
		t.Errorf("0x0ABCDEF encoded as tag 0x%02x content 0x%06x", uint8(w.Tag()), w.Content())
	}
}

func TestStructureInline(t *testing.T) {
	enc, _ := encDec(t)
	e, err := enc.Encode(parse.MustTerm("p(point(1, 2, 3))"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	// Header word + 3 element words.
	if len(e.Args) != 4 {
		t.Fatalf("arg words = %d, want 4", len(e.Args))
	}
	h := e.Args[0]
	if Group(h.Tag()) != GroupStructInline || InlineArity(h.Tag()) != 3 {
		t.Errorf("header = %s", TagName(h.Tag()))
	}
}

func TestNestedStructureGoesToHeap(t *testing.T) {
	enc, dec := encDec(t)
	src := "p(f(g(h(1)), 2))"
	e, err := enc.Encode(parse.MustTerm(src), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Heap) == 0 {
		t.Error("nested structure should use the heap")
	}
	got, err := dec.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "p(f(g(h(1)),2))" {
		t.Errorf("round trip = %v", got)
	}
}

func TestLists(t *testing.T) {
	enc, dec := encDec(t)
	for _, src := range []string{
		"p([])", "p([a])", "p([a,b,c])", "p([a|T])", "p([a,b|T])",
		"p([[1,2],[3]])", "p([f(x), [y|Z]])",
	} {
		e, err := enc.Encode(parse.MustTerm(src), DBSide)
		if err != nil {
			t.Fatalf("encode %s: %v", src, err)
		}
		got, err := dec.Decode(e)
		if err != nil {
			t.Fatalf("decode %s: %v", src, err)
		}
		want := parse.MustTerm(src)
		if !unify.Unifiable(got, want) || term.Size(unify.Resolve(got)) != term.Size(want) {
			t.Errorf("round trip %s = %v", src, got)
		}
	}
}

func TestEmptyListIsAtom(t *testing.T) {
	enc, _ := encDec(t)
	e, err := enc.Encode(parse.MustTerm("p([])"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if e.Args[0].Tag() != TagAtomPtr {
		t.Errorf("[] should encode as an atom pointer, got %s", TagName(e.Args[0].Tag()))
	}
}

func TestUnterminatedListTags(t *testing.T) {
	enc, _ := encDec(t)
	e, err := enc.Encode(parse.MustTerm("p([a,b|T])"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	h := e.Args[0]
	if Group(h.Tag()) != GroupUListInline || InlineArity(h.Tag()) != 2 {
		t.Errorf("header = %s", TagName(h.Tag()))
	}
	if !IsUnterminated(h.Tag()) || !IsList(h.Tag()) {
		t.Error("classification of unterminated list failed")
	}
	// Elements a, b then the tail variable word.
	if len(e.Args) != 4 {
		t.Fatalf("words = %d, want 4", len(e.Args))
	}
	if e.Args[3].Tag() != TagFirstDV {
		t.Errorf("tail word = %s", TagName(e.Args[3].Tag()))
	}
}

func TestLargeArityUsesPointerForm(t *testing.T) {
	enc, dec := encDec(t)
	// Structure with arity 35 > 31.
	args := make([]term.Term, 35)
	for i := range args {
		args[i] = term.Int(int64(i))
	}
	big := term.New("big", args...)
	e, err := enc.Encode(term.New("p", big), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if Group(e.Args[0].Tag()) != GroupStructPtr {
		t.Fatalf("arity-35 structure not pointer form: %s", TagName(e.Args[0].Tag()))
	}
	if len(e.Args) != 2 {
		t.Fatalf("structure pointer should be 2 words, got %d", len(e.Args))
	}
	got, err := dec.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if term.Size(got) != term.Size(term.New("p", big)) {
		t.Errorf("round trip lost elements: %v", got)
	}

	// Long list > 31 elements.
	elems := make([]term.Term, 40)
	for i := range elems {
		elems[i] = term.Atom("e")
	}
	e2, err := enc.Encode(term.New("p", term.List(elems...)), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if Group(e2.Args[0].Tag()) != GroupListPtr {
		t.Fatalf("40-list not pointer form: %s", TagName(e2.Args[0].Tag()))
	}
	got2, err := dec.Decode(e2)
	if err != nil {
		t.Fatal(err)
	}
	gl, _ := term.ListSlice(got2.(*term.Compound).Args[0])
	if len(gl) != 40 {
		t.Errorf("round trip list length = %d", len(gl))
	}
}

func TestVarSlotLimit(t *testing.T) {
	enc, _ := encDec(t)
	args := make([]term.Term, MaxVarSlots+1)
	for i := range args {
		args[i] = term.NewVar("V")
	}
	// Arity limit is 255 in the record; use a list to hold the variables.
	_, err := enc.Encode(term.New("p", term.List(args...)), DBSide)
	if err == nil {
		t.Error("should exceed the variable slot limit")
	}
}

func TestAtomicTermEncode(t *testing.T) {
	enc, dec := encDec(t)
	e, err := enc.Encode(term.Atom("standalone"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if e.Arity != 0 || len(e.Args) != 0 {
		t.Errorf("atom encoding = %v", e)
	}
	got, err := dec.Decode(e)
	if err != nil || got != term.Atom("standalone") {
		t.Errorf("decode = %v, %v", got, err)
	}
	if _, err := enc.Encode(term.Int(3), DBSide); err == nil {
		t.Error("bare integer is not callable")
	}
}

func TestFloats(t *testing.T) {
	enc, dec := encDec(t)
	e, err := enc.Encode(parse.MustTerm("p(3.25, -0.5)"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if e.Args[0].Tag() != TagFloatPtr {
		t.Errorf("float tag = %s", TagName(e.Args[0].Tag()))
	}
	got, err := dec.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "p(3.25,-0.5)" {
		t.Errorf("round trip = %v", got)
	}
}

func TestSharedVariableAcrossNesting(t *testing.T) {
	enc, dec := encDec(t)
	src := "p(X, f(X), [X|X])"
	e, err := enc.Encode(parse.MustTerm(src), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumVars != 1 {
		t.Fatalf("NumVars = %d, want 1", e.NumVars)
	}
	got, err := dec.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if !term.HasSharedVars(got) {
		t.Error("decoded term lost variable sharing")
	}
	vs := term.Vars(got, nil)
	if len(vs) != 1 {
		t.Errorf("decoded term has %d distinct vars, want 1", len(vs))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	enc, dec := encDec(t)
	for _, src := range []string{
		"f(a, 1, 2.5, X, [a,b|T], g(h(i)))",
		"married_couple(S, S)",
		"p",
	} {
		e, err := enc.Encode(parse.MustTerm(src), QuerySide)
		if err != nil {
			t.Fatalf("encode %s: %v", src, err)
		}
		e2, err := metaRoundTrip(e)
		if err != nil {
			t.Fatalf("meta round trip %s: %v", src, err)
		}
		if e2.Indicator() != e.Indicator() || e2.NumVars != e.NumVars ||
			len(e2.Args) != len(e.Args) || len(e2.Heap) != len(e.Heap) {
			t.Fatalf("record mismatch for %s", src)
		}
		for i := range e.Args {
			if e2.Args[i] != e.Args[i] {
				t.Fatalf("arg word %d differs", i)
			}
		}
		got, err := dec.Decode(e2)
		if err != nil {
			t.Fatalf("decode unmarshalled %s: %v", src, err)
		}
		if !unify.Unifiable(got, parse.MustTerm(src)) {
			t.Errorf("round trip %s = %v", src, got)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	enc, _ := encDec(t)
	good, _ := enc.Encode(parse.MustTerm("f(a,B)"), DBSide)
	data, _ := good.MarshalBinaryMeta()
	words := append(append([]Word(nil), good.Args...), good.Heap...)
	var e Encoded
	if err := e.UnmarshalBinaryMeta(data, NewWordView(words)); err != nil {
		t.Fatalf("good record: %v", err)
	}
	for name, bad := range map[string][]byte{
		"bad magic":      {0x00, 0x01},
		"truncated":      data[:len(data)-2],
		"trailing bytes": append(append([]byte(nil), data...), 0),
	} {
		if err := e.UnmarshalBinaryMeta(bad, NewWordView(words)); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	if err := e.UnmarshalBinaryMeta(data, NewWordView(words[:len(words)-1])); err == nil {
		t.Error("a word section shorter than the record claims should fail")
	}
}

// metaRoundTrip stores e the way the clause file does — a meta record
// plus its words in a shared section — and decodes it back.
func metaRoundTrip(e *Encoded) (*Encoded, error) {
	data, err := e.MarshalBinaryMeta()
	if err != nil {
		return nil, err
	}
	if len(data)+e.SizeBytes() != e.RecordSize() {
		return nil, fmt.Errorf("RecordSize %d, marshalled %d+%d", e.RecordSize(), len(data), e.SizeBytes())
	}
	wv := NewWordView(append(append([]Word(nil), e.Args...), e.Heap...))
	var e2 Encoded
	if err := e2.UnmarshalBinaryMeta(data, wv); err != nil {
		return nil, err
	}
	if left := wv.Remaining(); left != 0 {
		return nil, fmt.Errorf("%d words unconsumed", left)
	}
	return &e2, nil
}

func TestSizeBytes(t *testing.T) {
	enc, _ := encDec(t)
	e, _ := enc.Encode(parse.MustTerm("f(a, b, c)"), DBSide)
	if e.SizeBytes() != 12 {
		t.Errorf("SizeBytes = %d, want 12 (3 words)", e.SizeBytes())
	}
}

// Property: encode→decode is unification-equivalent to the original for a
// family of generated terms.
func TestQuickRoundTrip(t *testing.T) {
	enc, dec := encDec(t)
	f := func(seed uint16) bool {
		orig := term.New("q", genTerm(int(seed), 0), genTerm(int(seed)/7, 3))
		e, err := enc.Encode(orig, DBSide)
		if err != nil {
			return false
		}
		got, err := dec.Decode(e)
		if err != nil {
			return false
		}
		return unify.Unifiable(got, orig) && term.Size(got) == term.Size(orig) &&
			term.Depth(got) == term.Depth(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: marshalled records survive the binary round trip exactly.
func TestQuickMarshalRoundTrip(t *testing.T) {
	enc, _ := encDec(t)
	f := func(seed uint16) bool {
		orig := term.New("q", genTerm(int(seed), 1))
		e, err := enc.Encode(orig, QuerySide)
		if err != nil {
			return false
		}
		e2, err := metaRoundTrip(e)
		if err != nil {
			return false
		}
		if len(e2.Args) != len(e.Args) {
			return false
		}
		for i := range e.Args {
			if e2.Args[i] != e.Args[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// genTerm builds a small deterministic term from a seed, covering all PIF
// categories.
func genTerm(seed, salt int) term.Term {
	switch (seed + salt) % 8 {
	case 0:
		return term.Atom([]string{"a", "b", "c"}[seed%3])
	case 1:
		return term.Int(int64(seed%100 - 50))
	case 2:
		return term.Float(float64(seed) / 4)
	case 3:
		return term.NewVar("V")
	case 4:
		return term.New("f", genTerm(seed/2, salt+1))
	case 5:
		return term.List(genTerm(seed/2, salt+1), genTerm(seed/3, salt+2))
	case 6:
		return term.ListTail(term.NewVar("T"), genTerm(seed/2, salt+1))
	default:
		return term.New("g", genTerm(seed/2, salt+1), genTerm(seed/5, salt+2), term.Int(int64(salt)))
	}
}

func TestTagClassifiers(t *testing.T) {
	if !IsComplex(GroupStructInline|2) || IsComplex(TagAtomPtr) {
		t.Error("IsComplex misclassifies")
	}
	if !IsStruct(GroupStructPtr|3) || IsStruct(GroupListInline|1) {
		t.Error("IsStruct misclassifies")
	}
	if !IsPointer(GroupListPtr|2) || !IsPointer(GroupUListPtr) || !IsPointer(GroupStructPtr) {
		t.Error("IsPointer misses pointer groups")
	}
	if IsPointer(GroupStructInline | 1) {
		t.Error("in-line tag classified as pointer")
	}
	if WordLen(GroupStructPtr|1) != 2 || WordLen(TagAtomPtr) != 1 || WordLen(GroupListPtr|3) != 1 {
		t.Error("WordLen wrong")
	}
}

func TestTagNames(t *testing.T) {
	cases := map[Tag]string{
		TagAnonVar:            "AnonVar",
		TagFirstQV:            "FirstQV",
		TagSubQV:              "SubQV",
		TagFirstDV:            "FirstDV",
		TagSubDV:              "SubDV",
		TagAtomPtr:            "AtomPtr",
		TagFloatPtr:           "FloatPtr",
		Tag(TagIntBase) | 5:   "IntInline",
		GroupStructInline | 4: "StructInline/4",
		GroupStructPtr | 2:    "StructPtr/2",
		GroupListInline | 7:   "ListInline/7",
		GroupUListInline | 1:  "UListInline/1",
		GroupListPtr | 9:      "ListPtr/9",
		GroupUListPtr | 3:     "UListPtr/3",
	}
	for tag, want := range cases {
		if got := TagName(tag); got != want {
			t.Errorf("TagName(0x%02x) = %q, want %q", uint8(tag), got, want)
		}
	}
	if TagName(0x00) == "" {
		t.Error("unknown tag should still name itself")
	}
	if CategoryOf(0x00) != CatInvalid || CatInvalid.String() != "invalid" {
		t.Error("invalid category handling")
	}
	for _, c := range []Category{CatSimple, CatVariable, CatComplex} {
		if c.String() == "" || c.String() == "invalid" {
			t.Errorf("category %d string = %q", c, c.String())
		}
	}
}

func TestEncodedStringDisassembly(t *testing.T) {
	enc, _ := encDec(t)
	e, err := enc.Encode(parse.MustTerm("p(a, X, f(g(1)), [u|T])"), DBSide)
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	for _, want := range []string{"p/4", "AtomPtr", "FirstDV", "StructInline/1", "UListInline/1", "heap["} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
}
