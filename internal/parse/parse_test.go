package parse

import (
	"io"
	"testing"

	"clare/internal/term"
)

func mustParse(t *testing.T, src string) term.Term {
	t.Helper()
	tt, err := Term(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return tt
}

// roundTrip checks src parses and prints as want (canonical form).
func roundTrip(t *testing.T, src, want string) {
	t.Helper()
	got := mustParse(t, src).String()
	if got != want {
		t.Errorf("parse(%q) prints %q, want %q", src, got, want)
	}
}

func TestAtomsAndNumbers(t *testing.T) {
	roundTrip(t, "foo", "foo")
	roundTrip(t, "42", "42")
	roundTrip(t, "-42", "-42")
	roundTrip(t, "3.5", "3.5")
	roundTrip(t, "-3.5", "-3.5")
	roundTrip(t, "'Weird atom'", "'Weird atom'")
	roundTrip(t, "[]", "[]")
	roundTrip(t, "{}", "{}")
}

func TestCompounds(t *testing.T) {
	roundTrip(t, "f(a,b,c)", "f(a,b,c)")
	roundTrip(t, "f(g(h(x)))", "f(g(h(x)))")
	roundTrip(t, "'My F'(a)", "'My F'(a)")
}

func TestLists(t *testing.T) {
	roundTrip(t, "[a,b,c]", "[a,b,c]")
	roundTrip(t, "[a|T]", "[a|T]")
	roundTrip(t, "[a,b|T]", "[a,b|T]")
	roundTrip(t, "[[1,2],[3]]", "[[1,2],[3]]")
	roundTrip(t, "[a|[b,c]]", "[a,b,c]")
}

func TestOperatorPrecedence(t *testing.T) {
	roundTrip(t, "1+2*3", "+(1,*(2,3))")
	roundTrip(t, "(1+2)*3", "*(+(1,2),3)")
	roundTrip(t, "1+2+3", "+(+(1,2),3)") // yfx: left assoc
	roundTrip(t, "a:-b,c", "(a:-(b,c))")
	roundTrip(t, "a,b;c", "((a,b);c)") // ; at 1100 > , at 1000
	roundTrip(t, "a;b,c", "(a;(b,c))")
	roundTrip(t, "X = Y", "=(X,Y)")
	roundTrip(t, "X is 1+2", "is(X,+(1,2))")
	roundTrip(t, "2^3^4", "^(2,^(3,4))") // xfy: right assoc
	if _, err := Term("2**3**4"); err == nil {
		t.Error("xfx '**' should not chain")
	}
}

func TestXFXNonAssociative(t *testing.T) {
	if _, err := Term("a = b = c"); err == nil {
		t.Error("xfx '=' should not chain")
	}
}

func TestPrefixOperators(t *testing.T) {
	roundTrip(t, "- X", "-(X)")
	roundTrip(t, "\\+ a", "\\+(a)")
	roundTrip(t, ":- main", ":-(main)")
	roundTrip(t, "- - X", "-(-(X))") // fy allows nesting
	roundTrip(t, "-(1)", "-(1)")     // parenthesised arg: prefix application of a number
}

func TestPrefixMinusFoldsLiterals(t *testing.T) {
	if got := mustParse(t, "-5"); got != term.Int(-5) {
		t.Errorf("-5 parsed as %v", got)
	}
	if got := mustParse(t, "1 - 2").String(); got != "-(1,2)" {
		t.Errorf("1 - 2 parsed as %q", got)
	}
	// f(-, x): '-' as plain atom argument.
	roundTrip(t, "f(-, x)", "f(-,x)")
}

func TestCommaInArgsVsOperator(t *testing.T) {
	tt := mustParse(t, "f(a,b)")
	c := tt.(*term.Compound)
	if len(c.Args) != 2 {
		t.Fatalf("f(a,b) arity = %d, want 2", len(c.Args))
	}
	// Parenthesised comma term as single argument.
	tt = mustParse(t, "f((a,b))")
	c = tt.(*term.Compound)
	if len(c.Args) != 1 {
		t.Fatalf("f((a,b)) arity = %d, want 1", len(c.Args))
	}
}

func TestVariableScoping(t *testing.T) {
	tt := mustParse(t, "f(X, Y, X)")
	c := tt.(*term.Compound)
	if c.Args[0] != c.Args[2] {
		t.Error("same-name variables should be identical within a clause")
	}
	if c.Args[0] == c.Args[1] {
		t.Error("distinct variables should differ")
	}
	// Anonymous _ is always fresh.
	tt = mustParse(t, "f(_, _)")
	c = tt.(*term.Compound)
	if c.Args[0] == c.Args[1] {
		t.Error("anonymous variables must be distinct")
	}
}

func TestVariableScopePerClause(t *testing.T) {
	p, err := New("f(X). g(X).")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := p.ReadTerm()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p.ReadTerm()
	if err != nil {
		t.Fatal(err)
	}
	v1 := t1.(*term.Compound).Args[0]
	v2 := t2.(*term.Compound).Args[0]
	if v1 == v2 {
		t.Error("X in different clauses must be different variables")
	}
}

func TestStringsAsCodeLists(t *testing.T) {
	tt := mustParse(t, `"ab"`)
	elems, tail := term.ListSlice(tt)
	if tail != term.NilAtom || len(elems) != 2 ||
		elems[0] != term.Int('a') || elems[1] != term.Int('b') {
		t.Errorf(`"ab" parsed as %v`, tt)
	}
}

func TestCurly(t *testing.T) {
	roundTrip(t, "{a,b}", "{}((a,b))")
}

func TestReadAll(t *testing.T) {
	p, err := New(`
		parent(tom, bob).
		parent(bob, ann).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := p.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("read %d clauses, want 3", len(ts))
	}
	if ts[2].Indicator() != ":-/2" {
		t.Errorf("rule indicator = %s", ts[2].Indicator())
	}
}

func TestReadTermEOF(t *testing.T) {
	p, err := New("a.")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadTerm(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadTerm(); err != io.EOF {
		t.Errorf("expected io.EOF, got %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"f(a",       // unclosed args
		"f(a,)",     // missing arg — ')' can't start a term
		"[a,",       // unclosed list
		"f(a) g(b)", // missing '.' between terms is caught by Term trailing check
		")",
		"a b",
	}
	for _, src := range bad {
		if _, err := Term(src); err == nil {
			t.Errorf("parse(%q) should fail", src)
		}
	}
}

func TestMissingEndDot(t *testing.T) {
	p, err := New("foo(a)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadTerm(); err == nil {
		t.Error("clause without '.' should fail")
	}
}

func TestDCGArrowAndUnivOps(t *testing.T) {
	roundTrip(t, "a --> b", "-->(a,b)")
	roundTrip(t, "X =.. L", "=..(X,L)")
}

func TestBarAsSemicolonInBody(t *testing.T) {
	roundTrip(t, "(a|b)", "(a;b)")
}

func TestDeepNesting(t *testing.T) {
	src := "f("
	for i := 0; i < 50; i++ {
		src += "g("
	}
	src += "x"
	for i := 0; i < 50; i++ {
		src += ")"
	}
	src += ")"
	tt := mustParse(t, src)
	if d := term.Depth(tt); d != 51 {
		t.Errorf("depth = %d, want 51", d)
	}
}

func TestOpTableMutation(t *testing.T) {
	ops := NewOpTable()
	ops.Add(Op{700, XFX, "~>"})
	p, err := NewWithOps("a ~> b.", ops)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := p.ReadTerm()
	if err != nil {
		t.Fatal(err)
	}
	if tt.Indicator() != "~>/2" {
		t.Errorf("custom op parsed as %s", tt.Indicator())
	}
	// Removal.
	ops.Add(Op{0, XFX, "~>"})
	p2, err := NewWithOps("a ~> b.", ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.ReadTerm(); err == nil {
		t.Error("removed operator should no longer parse infix")
	}
}

func TestNamedVarsTracking(t *testing.T) {
	p, err := New("f(X, Y, _Z, _).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadTerm(); err != nil {
		t.Fatal(err)
	}
	nv := p.NamedVars()
	if _, ok := nv["X"]; !ok {
		t.Error("X missing from NamedVars")
	}
	if len(p.VarNames) != 2 || p.VarNames[0] != "X" || p.VarNames[1] != "Y" {
		t.Errorf("VarNames = %v, want [X Y]", p.VarNames)
	}
}

func TestMarriedCoupleQueries(t *testing.T) {
	// The §2.1 shared-variable example must parse with shared vars.
	q := mustParse(t, "married_couple(Same, Same)")
	if !term.HasSharedVars(q) {
		t.Error("married_couple(S,S) should have shared variables")
	}
	q2 := mustParse(t, "married_couple(A, B)")
	if term.HasSharedVars(q2) {
		t.Error("married_couple(A,B) should not have shared variables")
	}
}

func TestOpTypeStrings(t *testing.T) {
	want := map[OpType]string{XFX: "xfx", XFY: "xfy", YFX: "yfx", FY: "fy", FX: "fx", XF: "xf", YF: "yf"}
	for ot, s := range want {
		if ot.String() != s {
			t.Errorf("OpType(%d).String() = %q, want %q", ot, ot.String(), s)
		}
	}
	if OpType(99).String() != "op?" {
		t.Error("unknown op type should print op?")
	}
}

func TestParseErrorPosition(t *testing.T) {
	p, errNew := New("a.\nb(]")
	if errNew != nil {
		// Lexer errors are fine too; only check position formatting.
		return
	}
	if _, err := p.ReadTerm(); err != nil {
		t.Fatalf("first clause: %v", err)
	}
	_, err := p.ReadTerm()
	if err == nil {
		t.Fatal("expected syntax error")
	}
	var pe *Error
	if !errorsAs(err, &pe) {
		t.Fatalf("error type = %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if pe.Error() == "" {
		t.Error("empty error text")
	}
}

// errorsAs is a tiny local stand-in to avoid importing errors for one call.
func errorsAs(err error, target **Error) bool {
	if e, ok := err.(*Error); ok {
		*target = e
		return true
	}
	return false
}

func TestMustTermPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTerm on bad input should panic")
		}
	}()
	MustTerm("f(")
}

func TestOpsAccessor(t *testing.T) {
	p, err := New("a.")
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops() == nil {
		t.Error("Ops() returned nil")
	}
}

// TestTermSharesOpTable: Term parses against the one package-level
// standard table; building a private table per call costs 13 more
// allocations than the whole parse of an atom.
func TestTermSharesOpTable(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { MustTerm("a") }); n > 10 {
		t.Errorf("Term(%q) = %v allocs, want <= 10 (an operator table per call?)", "a", n)
	}
	// A parser that hands its table out still gets a private one.
	p, err := New("a.")
	if err != nil {
		t.Fatal(err)
	}
	p.Ops().Add(Op{Priority: 700, Type: XFX, Name: "===>"})
	if _, err := Term("a ===> b"); err == nil {
		t.Error("op/3 on a parser's private table leaked into Term's standard table")
	}
}
