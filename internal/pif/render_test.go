package pif

import (
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"clare/internal/symtab"
	"clare/internal/term"
	"clare/internal/termgen"
)

var genName = regexp.MustCompile(`_G[0-9]+`)

// canonical renumbers the _G<n> names of a rendered clause in order of
// first appearance: which ids a printer draws from term's counter is not
// part of what it prints.
func canonical(s string) string {
	seen := map[string]int{}
	return genName.ReplaceAllStringFunc(s, func(m string) string {
		if _, ok := seen[m]; !ok {
			seen[m] = len(seen)
		}
		return fmt.Sprintf("_G#%d", seen[m])
	})
}

// printDecoded is the oracle: decode the clause record into terms and
// print them the way the RETRIEVE handler did before it rendered words.
func printDecoded(syms *symtab.Table, e *Encoded) (string, error) {
	whole, err := NewDecoder(syms).Decode(e)
	if err != nil {
		return "", err
	}
	c, ok := whole.(*term.Compound)
	if !ok || c.Functor != ClauseFunctor || len(c.Args) != 2 {
		return "", fmt.Errorf("not a clause: %v", whole)
	}
	if term.Equal(c.Args[1], term.Atom("true")) {
		return fmt.Sprintf("%s.", c.Args[0]), nil
	}
	return fmt.Sprintf("%s :- %s.", c.Args[0], c.Args[1]), nil
}

// clauseGen draws clauses from termgen: heads and body goals share one
// variable scope, bodies are built from the control operators, and the
// cases termgen's own pools leave out are mixed in by hand.
type clauseGen struct {
	g     *termgen.Gen
	heads []string
	n     int
}

func (c *clauseGen) pick(pool []string) string { c.n++; return pool[c.n%len(pool)] }

// arg is a termgen term, or every seventh time one of the hand-made
// cases: negative and extreme integers, anonymous and machine-generated
// variables, floats that need the ".0" or print in exponent form.
func (c *clauseGen) arg(shared *term.Var) term.Term {
	c.n++
	if c.n%7 != 0 {
		return c.g.Term(2)
	}
	switch (c.n / 7) % 8 {
	case 0:
		return term.Int(-int64(c.n))
	case 1:
		return term.Int(MinInlineInt)
	case 2:
		return term.Int(MaxInlineInt)
	case 3:
		return term.NewVar("_")
	case 4:
		return shared
	case 5:
		return term.Float(-2)
	case 6:
		return term.Float(1e300)
	default:
		return term.Float(math.Inf(-1))
	}
}

func (c *clauseGen) goal(functor string, arity int, shared *term.Var) term.Term {
	args := make([]term.Term, arity)
	for i := range args {
		args[i] = c.arg(shared)
	}
	return term.New(functor, args...)
}

func (c *clauseGen) body(depth int, shared *term.Var) term.Term {
	c.n++
	if depth == 0 || c.n%3 == 0 {
		return c.goal(c.pick(c.heads), c.n%4, shared)
	}
	op := c.pick([]string{",", ";", "->", ":-"})
	return term.New(op, c.body(depth-1, shared), c.body(depth-1, shared))
}

// clause returns the i'th clause: every third one a fact.
func (c *clauseGen) clause(i, maxArity int) (head, body term.Term) {
	c.g.Reset()
	shared := term.NewVar("") // prints as one _G name wherever it occurs
	head = c.goal(c.pick(c.heads), i%(maxArity+1), shared)
	if i%3 == 0 {
		return head, term.Atom("true")
	}
	return head, c.body(1+i%3, shared)
}

// TestRenderMatchesDecode is the differential the word renderer stands
// on: over generated clauses, AppendClause's bytes are the bytes of
// printing the decoded terms, up to _G numbering.
func TestRenderMatchesDecode(t *testing.T) {
	odd := []string{"a", "hello world", "Foo", "don't", "[]", "", `a\b`, "é", "+", "-->", "\n", "true", "x_1", "{}", "!", "."}
	configs := []struct {
		name     string
		cfg      termgen.Config
		maxArity int
		clauses  int
	}{
		{"plain", termgen.Config{}, 6, 6000},
		{"quoted", termgen.Config{Atoms: odd, Functors: []string{"f", "Big F", ";", "->", ",", ":-", "."}}, 6, 4500},
		// Arities and list lengths past 31 go through the heap.
		{"wide", termgen.Config{MaxArity: 40, MaxListLen: 40, MaxDepth: 2}, 40, 2000},
	}
	var total, facts, rules, heaps, quoted, anon, open int
	var dst []byte
	for ci, tc := range configs {
		syms := symtab.New()
		enc := NewEncoder(syms)
		gen := &clauseGen{g: termgen.NewWithConfig(int64(100+ci), tc.cfg), heads: []string{"p", "q", "is a", "r2"}}
		for i := 0; i < tc.clauses; i++ {
			head, body := gen.clause(i, tc.maxArity)
			e, err := enc.Encode(term.New(ClauseFunctor, head, body), DBSide)
			if err != nil {
				continue // more than MaxVarSlots variables
			}
			want, err := printDecoded(syms, e)
			if err != nil {
				t.Fatalf("%s clause %d: decode: %v", tc.name, i, err)
			}
			dst, err = AppendClause(dst[:0], syms, e)
			if err != nil {
				t.Fatalf("%s clause %d (%s): AppendClause: %v", tc.name, i, want, err)
			}
			if got := string(dst); canonical(got) != canonical(want) {
				t.Fatalf("%s clause %d:\n got %s\nwant %s\n%v", tc.name, i, got, want, e)
			}
			total++
			if strings.Contains(want, " :- ") {
				rules++
			} else {
				facts++
			}
			if len(e.Heap) > 0 {
				heaps++
			}
			if strings.Contains(want, "'") {
				quoted++
			}
			if strings.Contains(want, "_G") {
				anon++
			}
			if strings.Contains(want, "|") {
				open++
			}
		}
	}
	t.Logf("%d clauses: %d facts, %d rules, %d with heap objects, %d with quoted atoms, %d with _G names, %d with open lists",
		total, facts, rules, heaps, quoted, anon, open)
	if total < 10000 {
		t.Errorf("only %d clauses compared, want >= 10000", total)
	}
	for what, n := range map[string]int{"facts": facts, "rules": rules, "heap": heaps, "quoted": quoted, "_G": anon, "open lists": open} {
		if n < 100 {
			t.Errorf("only %d clauses with %s", n, what)
		}
	}
}

// TestRenderHandMade covers what the encoder never emits but Decode
// accepts, so the two still agree on a store written by something else:
// './2' structures, list tails that are not variables, empty counts.
func TestRenderHandMade(t *testing.T) {
	syms := symtab.New()
	atom := func(s string) Word { return MakeWord(TagAtomPtr, uint32(syms.Atom(s))) }
	float := func(v float64) Word { return MakeWord(TagFloatPtr, uint32(syms.Float(v))) }
	fun := func(g Tag, n int, s string) Word { return MakeWord(g|Tag(n), uint32(syms.Atom(s))) }
	for _, tc := range []struct {
		args, heap []Word
		want       string
	}{
		{[]Word{fun(GroupStructInline, 2, "."), atom("a"), atom("[]"), atom("true")}, nil, "[a]."},
		{[]Word{fun(GroupStructInline, 2, "."), atom("a"), atom("b"), atom("true")}, nil, "[a|b]."},
		{[]Word{MakeWord(GroupUListInline|1, 0), atom("a"), MakeWord(GroupListInline|2, 0), atom("b"), atom("c"), atom("true")}, nil, "[a,b,c]."},
		{[]Word{MakeWord(GroupUListInline|1, 0), atom("a"), MakeWord(GroupUListInline, 0), atom("[]"), atom("true")}, nil, "[a]."},
		{[]Word{MakeWord(GroupUListInline|1, 0), atom("a"), fun(GroupStructInline, 0, "[]"), atom("true")}, nil, "[a]."},
		{[]Word{MakeWord(GroupUListInline|1, 0), atom("a"), fun(GroupStructInline, 1, "f"), atom("x"), atom("true")}, nil, "[a|f(x)]."},
		{[]Word{MakeWord(GroupUListInline|1, 0), atom("a"), MakeWord(GroupListPtr, 0), atom("true")}, []Word{1, MakeWord(TagIntBase|0x0F, 0xFFFFFF)}, "[a,-1]."},
		{[]Word{MakeWord(GroupListInline, 0), fun(GroupStructPtr, 0, "ignored"), 0}, []Word{0, atom("g")}, "[] :- g."},
		{[]Word{atom("p"), fun(GroupStructInline, 2, ","), atom("a"), MakeWord(TagAnonVar, 0)}, nil, "p :- (a,_G#0)."},
		{[]Word{fun(GroupStructInline, 3, "f"), float(math.NaN()), float(math.Inf(1)), float(math.Inf(-1)), atom("true")}, nil, "f(NaN.0,+Inf.0,-Inf.0)."},
	} {
		e := &Encoded{Functor: ClauseFunctor, Arity: 2, Args: tc.args, Heap: tc.heap}
		oracle, err := printDecoded(syms, e)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.want, err)
			continue
		}
		got, err := AppendClause(nil, syms, e)
		if err != nil || canonical(string(got)) != tc.want || canonical(oracle) != tc.want {
			t.Errorf("rendered %q (%v), decode-and-print %q, want %q", got, err, oracle, tc.want)
		}
	}
}

// TestRenderRejects: AppendClause fails where Decode does, leaves dst
// alone, and neither walks a heap that is not a tree.
func TestRenderRejects(t *testing.T) {
	syms := symtab.New()
	a := MakeWord(TagAtomPtr, uint32(syms.Atom("a")))
	f := syms.Float(1.5)
	for _, tc := range []struct {
		name string
		e    Encoded
	}{
		{"not a clause", Encoded{Functor: "p", Arity: 2, Args: []Word{a, a}}},
		{"truncated", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a}}},
		{"trailing", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, a, a}}},
		{"bad tag", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(0x02, 0)}}},
		{"bad symbol", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(TagAtomPtr, 999)}}},
		{"float as atom", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(TagAtomPtr, uint32(f))}}},
		{"slot out of range", Encoded{Functor: ClauseFunctor, Arity: 2, NumVars: 1, Args: []Word{a, MakeWord(TagFirstDV, 1)}}},
		{"short inline", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(GroupStructInline|3, uint32(syms.Atom("g"))), a}}},
		{"missing extension", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(GroupStructPtr, 1)}}},
		{"heap offset", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(GroupListPtr, 7)}, Heap: []Word{1, a}}},
		{"heap count", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(GroupListPtr, 0)}, Heap: []Word{0xFFFFFFFF, a}}},
		{"heap cycle", Encoded{Functor: ClauseFunctor, Arity: 2, Args: []Word{a, MakeWord(GroupListPtr, 0)}, Heap: []Word{1, MakeWord(GroupListPtr, 0)}}},
		{"heap shared", Encoded{Functor: ClauseFunctor, Arity: 2,
			Args: []Word{a, MakeWord(GroupListPtr, 0)},
			Heap: []Word{2, MakeWord(GroupListPtr, 3), MakeWord(GroupListPtr, 3), 2, MakeWord(GroupListPtr, 6), MakeWord(GroupListPtr, 6), 1, a}}},
	} {
		if _, err := printDecoded(syms, &tc.e); err == nil {
			t.Errorf("%s: Decode accepted it", tc.name)
		}
		got, err := AppendClause([]byte("kept"), syms, &tc.e)
		if err == nil || string(got) != "kept" {
			t.Errorf("%s: AppendClause = %q, %v; want the input back and an error", tc.name, got, err)
		}
	}
}

// fuzzTable is the symbol table FuzzAppendClause resolves content fields
// against: small refs hit atoms of every printing kind and two floats.
func fuzzTable() *symtab.Table {
	syms := symtab.New()
	for _, s := range []string{"true", "a", "[]", ".", ",", ";", "->", ":-", "Quoted one", "", "it's", "f"} {
		syms.Atom(s)
	}
	syms.Float(2)
	syms.Float(-0.5)
	return syms
}

func wordBytes(ws ...Word) []byte {
	var out []byte
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint32(out, uint32(w))
	}
	return out
}

// FuzzAppendClause feeds arbitrary Args and Heap words to the renderer
// and the decoder: neither may panic or hang, both fail together, and
// where they succeed they print the same clause.
func FuzzAppendClause(f *testing.F) {
	syms := fuzzTable()
	enc := NewEncoder(syms)
	x := term.NewVar("X")
	for _, cl := range []term.Term{
		term.New(ClauseFunctor, term.New("f", term.Atom("a"), x), term.Atom("true")),
		term.New(ClauseFunctor, term.New("f", x, term.NewVar("_")), term.New(",", term.New("f", x), term.Atom("a"))),
		term.New(ClauseFunctor, term.New("f", term.ListTail(x, term.Int(-3), term.Float(2))), term.New("f", term.List(term.List(term.Atom("it's"))))),
	} {
		e, err := enc.Encode(cl, DBSide)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wordBytes(e.Args...), wordBytes(e.Heap...), uint8(e.NumVars))
	}
	f.Add(wordBytes(MakeWord(TagAtomPtr, 2), MakeWord(GroupListPtr, 0)), wordBytes(1, MakeWord(GroupListPtr, 0)), uint8(0))

	words := func(b []byte) []Word {
		ws := make([]Word, len(b)/4)
		for i := range ws {
			ws[i] = Word(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return ws
	}
	f.Fuzz(func(t *testing.T, args, heap []byte, numVars uint8) {
		e := &Encoded{Functor: ClauseFunctor, Arity: 2, Args: words(args), Heap: words(heap),
			NumVars: int(numVars), VarNames: []string{"X", "", "_", "Y"}}
		want, werr := printDecoded(syms, e)
		got, gerr := AppendClause(nil, syms, e)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Decode: %v\nAppendClause: %v\n%v", werr, gerr, e)
		}
		if werr == nil && canonical(string(got)) != canonical(want) {
			t.Fatalf("rendered %q, decode-and-print %q\n%v", got, want, e)
		}
	})
}
