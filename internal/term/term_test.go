package term

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAtomVsCompound(t *testing.T) {
	if _, ok := New("foo").(Atom); !ok {
		t.Error("New with no args should return an Atom")
	}
	c, ok := New("foo", Int(1)).(*Compound)
	if !ok {
		t.Fatal("New with args should return *Compound")
	}
	if c.Functor != "foo" || len(c.Args) != 1 {
		t.Errorf("compound = %v", c)
	}
}

func TestDeref(t *testing.T) {
	v1, v2 := NewVar("X"), NewVar("Y")
	v1.Ref = v2
	v2.Ref = Atom("a")
	if got := Deref(v1); got != Atom("a") {
		t.Errorf("Deref chain = %v, want a", got)
	}
	u := NewVar("U")
	if got := Deref(u); got != u {
		t.Errorf("Deref unbound = %v, want the var itself", got)
	}
}

func TestListConstruction(t *testing.T) {
	l := List(Atom("a"), Atom("b"), Atom("c"))
	elems, tail := ListSlice(l)
	if len(elems) != 3 || tail != NilAtom {
		t.Fatalf("ListSlice = %v, %v", elems, tail)
	}
	if !IsProperList(l) {
		t.Error("proper list not recognised")
	}
	if IsPartialList(l) {
		t.Error("proper list mistaken for partial list")
	}
	if got := l.String(); got != "[a,b,c]" {
		t.Errorf("String = %q, want [a,b,c]", got)
	}
}

func TestPartialList(t *testing.T) {
	tl := NewVar("T")
	l := ListTail(tl, Atom("a"), Atom("b"))
	if !IsPartialList(l) {
		t.Error("partial list not recognised")
	}
	if IsProperList(l) {
		t.Error("partial list mistaken for proper list")
	}
	elems, tail := ListSlice(l)
	if len(elems) != 2 || tail != tl {
		t.Errorf("ListSlice = %v, %v", elems, tail)
	}
	if got := l.String(); got != "[a,b|T]" {
		t.Errorf("String = %q, want [a,b|T]", got)
	}
}

func TestGround(t *testing.T) {
	if !Ground(New("f", Int(1), List(Atom("x")))) {
		t.Error("ground term reported non-ground")
	}
	if Ground(New("f", NewVar("X"))) {
		t.Error("term with var reported ground")
	}
	v := NewVar("X")
	v.Ref = Atom("a")
	if !Ground(New("f", v)) {
		t.Error("bound var should count as ground")
	}
}

func TestVarsOrderAndDistinctness(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	tt := New("f", x, New("g", y, x))
	vs := Vars(tt, nil)
	if len(vs) != 2 || vs[0] != x || vs[1] != y {
		t.Errorf("Vars = %v", vs)
	}
}

func TestHasSharedVars(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	if HasSharedVars(New("married_couple", x, y)) {
		t.Error("distinct vars reported shared")
	}
	if !HasSharedVars(New("married_couple", x, x)) {
		t.Error("married_couple(S,S) not detected as shared — the §2.1 pathology")
	}
	// Sharing through structure.
	if !HasSharedVars(New("f", x, New("g", x))) {
		t.Error("nested sharing not detected")
	}
}

func TestRenameFreshAndConsistent(t *testing.T) {
	x := NewVar("X")
	orig := New("f", x, x, Atom("k"))
	ren := Rename(orig).(*Compound)
	rv0, ok0 := ren.Args[0].(*Var)
	rv1, ok1 := ren.Args[1].(*Var)
	if !ok0 || !ok1 {
		t.Fatalf("renamed args are not vars: %v", ren)
	}
	if rv0 != rv1 {
		t.Error("shared var lost sharing after rename")
	}
	if rv0 == x {
		t.Error("rename did not freshen the variable")
	}
	if ren.Args[2] != Atom("k") {
		t.Error("constant corrupted by rename")
	}
}

func TestRenameWithSharedMapping(t *testing.T) {
	x := NewVar("X")
	head := New("h", x)
	body := New("b", x)
	m := make(map[*Var]*Var)
	rh := RenameWith(head, m).(*Compound)
	rb := RenameWith(body, m).(*Compound)
	if rh.Args[0] != rb.Args[0] {
		t.Error("head/body sharing broken by RenameWith")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Term
		want bool
	}{
		{Atom("a"), Atom("a"), true},
		{Atom("a"), Atom("b"), false},
		{Int(1), Int(1), true},
		{Int(1), Float(1), false},
		{New("f", Int(1)), New("f", Int(1)), true},
		{New("f", Int(1)), New("f", Int(2)), false},
		{New("f", Int(1)), New("g", Int(1)), false},
		{New("f", Int(1)), New("f", Int(1), Int(2)), false},
		{List(Int(1)), List(Int(1)), true},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	v := NewVar("X")
	if !Equal(v, v) {
		t.Error("var not equal to itself")
	}
	if Equal(v, NewVar("X")) {
		t.Error("distinct vars reported equal")
	}
	// Equality looks through bindings.
	w := NewVar("W")
	w.Ref = Atom("a")
	if !Equal(w, Atom("a")) {
		t.Error("bound var not equal to its value")
	}
}

func TestCompareStandardOrder(t *testing.T) {
	v := NewVar("X")
	ordered := []Term{v, Float(1.5), Int(2), Atom("a"), New("f", Int(1))}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			want := sign(i - j)
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	// Compounds: arity dominates functor.
	if Compare(New("z", Int(1)), New("a", Int(1), Int(2))) != -1 {
		t.Error("lower arity should order first")
	}
	if Compare(New("a", Int(1)), New("b", Int(1))) != -1 {
		t.Error("functor should break arity ties")
	}
	if Compare(New("a", Int(1)), New("a", Int(2))) != -1 {
		t.Error("args should break functor ties")
	}
}

func TestDepthAndSize(t *testing.T) {
	if d := Depth(Atom("a")); d != 0 {
		t.Errorf("Depth(atom) = %d", d)
	}
	if d := Depth(New("f", Atom("a"))); d != 1 {
		t.Errorf("Depth(f(a)) = %d", d)
	}
	deep := New("f", New("g", New("h", Int(1))))
	if d := Depth(deep); d != 3 {
		t.Errorf("Depth(f(g(h(1)))) = %d", d)
	}
	if s := Size(deep); s != 4 {
		t.Errorf("Size = %d, want 4", s)
	}
}

func TestStringQuoting(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{Atom("foo"), "foo"},
		{Atom("Foo"), "'Foo'"},
		{Atom("hello world"), "'hello world'"},
		{Atom("[]"), "[]"},
		{Atom("+"), "+"},
		{Atom("don't"), `'don\'t'`},
		{Atom(""), "''"},
		{Int(-5), "-5"},
		{Float(2), "2.0"},
		{Float(1e21), "1e+21"},
		// The non-finite floats print in a form the parser does not read
		// back; pinned here so the term printer and pif.AppendClause, which
		// share AppendFloat, cannot drift apart unnoticed.
		{Float(math.NaN()), "NaN.0"},
		{Float(math.Inf(1)), "+Inf.0"},
		{Float(math.Inf(-1)), "-Inf.0"},
		{New("f", Atom("a"), Int(1)), "f(a,1)"},
		{New(",", Atom("a"), New("->", Atom("b"), Atom("c"))), "(a,(b->c))"},
		{Cons(Int(1), NewVarNamed("T")), "[1|T]"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// NewVarNamed gives tests a var that prints with its name.
func NewVarNamed(name string) *Var { return NewVar(name) }

func TestIndicator(t *testing.T) {
	if got := New("foo", Int(1), Int(2)).Indicator(); got != "foo/2" {
		t.Errorf("Indicator = %q", got)
	}
	if got := Atom("bar").Indicator(); got != "bar/0" {
		t.Errorf("Indicator = %q", got)
	}
}

// Property: Compare is antisymmetric and Equal ⇔ Compare==0 for ground terms
// built from ints.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64, sameFunctor bool) bool {
		fa, fb := "f", "f"
		if !sameFunctor {
			fb = "g"
		}
		ta := New(fa, Int(a))
		tb := New(fb, Int(b))
		return Compare(ta, tb) == -Compare(tb, ta) &&
			(Compare(ta, tb) == 0) == Equal(ta, tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Rename preserves structure (Depth, Size, Indicator) and
// variable-sharing patterns.
func TestQuickRenamePreservesShape(t *testing.T) {
	f := func(n uint8) bool {
		x := NewVar("X")
		tt := Term(x)
		for i := 0; i < int(n%6); i++ {
			tt = New("w", tt, x, Int(int64(i)))
		}
		r := Rename(tt)
		return Depth(r) == Depth(tt) && Size(r) == Size(tt) &&
			HasSharedVars(r) == HasSharedVars(tt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestControlOperatorPrinting(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{New(",", Atom("a"), Atom("b")), "(a,b)"},
		{New(";", Atom("a"), Atom("b")), "(a;b)"},
		{New("->", Atom("c"), Atom("t")), "(c->t)"},
		{New(":-", Atom("h"), Atom("b")), "(h:-b)"},
		{New(",", New(",", Atom("a"), Atom("b")), Atom("c")), "((a,b),c)"},
		// Arity-1 or arity-3 uses of the same names stay functional.
		{New(";", Atom("x")), ";(x)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSortTerms(t *testing.T) {
	ts := []Term{Atom("b"), Int(3), Atom("a"), Float(1.5), New("f", Int(1))}
	SortTerms(ts)
	want := []string{"1.5", "3", "a", "b", "f(1)"}
	for i, w := range want {
		if ts[i].String() != w {
			t.Fatalf("sorted = %v", ts)
		}
	}
}

func TestVarString(t *testing.T) {
	v := NewVar("Q")
	if v.String() != "Q" {
		t.Errorf("unbound var prints %q", v.String())
	}
	v.Ref = Atom("val")
	if v.String() != "val" {
		t.Errorf("bound var prints %q", v.String())
	}
	anon := NewVar("")
	if anon.String() == "" {
		t.Error("anonymous var should print a generated name")
	}
	if anon.ID() == 0 {
		t.Error("var ID should be assigned")
	}
}
