package symtab

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"clare/internal/term"
)

func TestAtomInterning(t *testing.T) {
	tb := New()
	a := tb.Atom("foo")
	b := tb.Atom("bar")
	if a == b {
		t.Fatalf("distinct atoms share ref %d", a)
	}
	if got := tb.Atom("foo"); got != a {
		t.Errorf("re-interning foo: got %d want %d", got, a)
	}
	if name := tb.MustName(a); name != "foo" {
		t.Errorf("Name(%d) = %q, want foo", a, name)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
}

func TestRefsStartAtOne(t *testing.T) {
	tb := New()
	if r := tb.Atom("x"); r != 1 {
		t.Errorf("first ref = %d, want 1", r)
	}
	if _, err := tb.Name(NoRef); err == nil {
		t.Error("Name(NoRef) should fail")
	}
}

func TestFloatInterning(t *testing.T) {
	tb := New()
	a := tb.Float(3.14)
	if got := tb.Float(3.14); got != a {
		t.Errorf("re-interning 3.14: got %d want %d", got, a)
	}
	if tb.Float(2.71) == a {
		t.Error("distinct floats share a ref")
	}
	if v := tb.MustFloat(a); v != 3.14 {
		t.Errorf("FloatValue = %v, want 3.14", v)
	}
	// 0.0 and -0.0 have different bit patterns and must not collide.
	if tb.Float(0.0) == tb.Float(math.Copysign(0, -1)) {
		t.Error("0.0 and -0.0 interned to the same ref")
	}
}

func TestNaNCanonicalised(t *testing.T) {
	tb := New()
	a := tb.Float(math.NaN())
	b := tb.Float(math.Float64frombits(0x7ff8000000000001)) // a different NaN payload
	if a != b {
		t.Errorf("NaNs interned differently: %d vs %d", a, b)
	}
}

func TestKindSeparation(t *testing.T) {
	tb := New()
	a := tb.Atom("1.5")
	f := tb.Float(1.5)
	if a == f {
		t.Fatal("atom and float collide")
	}
	if _, err := tb.FloatValue(a); err == nil {
		t.Error("FloatValue(atom ref) should fail")
	}
	if _, err := tb.Name(f); err == nil {
		t.Error("Name(float ref) should fail")
	}
	k, err := tb.Kind(f)
	if err != nil || k != KindFloat {
		t.Errorf("Kind(float) = %v, %v", k, err)
	}
}

func TestLookupAtom(t *testing.T) {
	tb := New()
	if _, ok := tb.LookupAtom("ghost"); ok {
		t.Error("LookupAtom found an atom in an empty table")
	}
	r := tb.Atom("present")
	got, ok := tb.LookupAtom("present")
	if !ok || got != r {
		t.Errorf("LookupAtom = %d,%v want %d,true", got, ok, r)
	}
}

func TestAtomsSorted(t *testing.T) {
	tb := New()
	for _, s := range []string{"zebra", "apple", "mango"} {
		tb.Atom(s)
	}
	got := tb.Atoms()
	want := []string{"apple", "mango", "zebra"}
	if len(got) != len(want) {
		t.Fatalf("Atoms() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Atoms()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestConcurrentInterning(t *testing.T) {
	tb := New()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	refs := make([][]Ref, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			refs[g] = make([]Ref, perG)
			for i := 0; i < perG; i++ {
				refs[g][i] = tb.Atom(fmt.Sprintf("sym%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if refs[g][i] != refs[0][i] {
				t.Fatalf("goroutine %d saw ref %d for sym%d, goroutine 0 saw %d",
					g, refs[g][i], i, refs[0][i])
			}
		}
	}
	if tb.Len() != perG {
		t.Errorf("Len = %d, want %d", tb.Len(), perG)
	}
}

// Property: interning is a function — equal names yield equal refs, and
// Name is its left inverse.
func TestQuickAtomRoundTrip(t *testing.T) {
	tb := New()
	f := func(name string) bool {
		r := tb.Atom(name)
		return tb.MustName(r) == name && tb.Atom(name) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloatRoundTrip(t *testing.T) {
	tb := New()
	f := func(v float64) bool {
		r := tb.Float(v)
		got := tb.MustFloat(r)
		if v != v { // NaN in, NaN out
			return got != got
		}
		return math.Float64bits(got) == math.Float64bits(v) && tb.Float(v) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAtomTextBare: the prints-without-quotes bit recorded at intern time
// is term's rule, survives a marshal round trip, and costs the entry
// nothing — it sits in the padding beside kind.
func TestAtomTextBare(t *testing.T) {
	tb := New()
	names := []string{"foo", "Foo", "hello world", "[]", "", "+", "don't", "x_1", "é"}
	for _, s := range names {
		tb.Atom(s)
	}
	data, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalTable(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []*Table{tb, loaded} {
		for i, s := range names {
			name, bare, err := table.AtomText(Ref(i + 1))
			if err != nil || name != s || bare != term.AtomBare(s) {
				t.Errorf("AtomText(%q) = %q, %v, %v; want bare = %v", s, name, bare, err, term.AtomBare(s))
			}
		}
	}
	if _, _, err := tb.AtomText(tb.Float(1.5)); err == nil {
		t.Error("AtomText of a float ref should fail")
	}
	if size := unsafe.Sizeof(entry{}); size > 4*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("entry grew to %d bytes", size)
	}
}
