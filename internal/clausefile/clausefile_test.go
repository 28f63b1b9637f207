package clausefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"clare/internal/parse"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/term"
	"clare/internal/unify"
)

func buildFamily(t *testing.T) (*PredFile, *symtab.Table) {
	t.Helper()
	syms := symtab.New()
	b, err := NewBuilder("family", "married_couple", 2, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	heads := []string{
		"married_couple(fred, wilma)",
		"married_couple(barney, betty)",
		"married_couple(pat, pat)",
	}
	for _, h := range heads {
		if err := b.Add(parse.MustTerm(h), term.Atom("true")); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(), syms
}

func TestBuildBasics(t *testing.T) {
	f, _ := buildFamily(t)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.SizeBytes() <= 0 || f.IndexSizeBytes() <= 0 {
		t.Error("sizes should be positive")
	}
	// The §2.1 size relation: the secondary file is much smaller than the
	// clause file.
	if f.IndexSizeBytes() >= f.SizeBytes() {
		t.Errorf("index %dB should be smaller than clause file %dB",
			f.IndexSizeBytes(), f.SizeBytes())
	}
	// Addresses are increasing and start at 0.
	all := f.All()
	if all[0].Addr != 0 {
		t.Errorf("first addr = %d", all[0].Addr)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Addr <= all[i-1].Addr {
			t.Error("addresses not increasing")
		}
		if all[i].Seq != i {
			t.Errorf("seq[%d] = %d", i, all[i].Seq)
		}
	}
}

func TestHeadMismatchRejected(t *testing.T) {
	syms := symtab.New()
	b, err := NewBuilder("m", "p", 2, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(parse.MustTerm("q(a, b)"), term.Atom("true")); err == nil {
		t.Error("wrong functor should be rejected")
	}
	if err := b.Add(parse.MustTerm("p(a)"), term.Atom("true")); err == nil {
		t.Error("wrong arity should be rejected")
	}
	if err := b.Add(term.Int(3), term.Atom("true")); err == nil {
		t.Error("non-callable head should be rejected")
	}
}

func TestDecodeClauseSharing(t *testing.T) {
	syms := symtab.New()
	b, err := NewBuilder("m", "grandparent", 2, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	rule := parse.MustTerm("grandparent(X, Z) :- parent(X, Y), parent(Y, Z)")
	rc := rule.(*term.Compound)
	if err := b.Add(rc.Args[0], rc.Args[1]); err != nil {
		t.Fatal(err)
	}
	f := b.Build()
	head, body, err := f.DecodeClause(f.All()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Head/body sharing: X in head must be the same variable as X in
	// body.
	hv := term.Vars(head, nil)
	bv := term.Vars(body, nil)
	if len(hv) != 2 {
		t.Fatalf("head vars = %d", len(hv))
	}
	shared := 0
	for _, v := range hv {
		for _, w := range bv {
			if v == w {
				shared++
			}
		}
	}
	if shared != 2 {
		t.Errorf("head/body share %d vars, want 2", shared)
	}
	if !unify.Unifiable(head, parse.MustTerm("grandparent(A, B)")) {
		t.Error("decoded head shape wrong")
	}
}

func TestByAddrs(t *testing.T) {
	f, _ := buildFamily(t)
	all := f.All()
	got, err := f.ByAddrs([]uint32{all[2].Addr, all[0].Addr})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 0 {
		t.Errorf("ByAddrs order not preserved: %v", got)
	}
	if _, err := f.ByAddrs([]uint32{99999}); err == nil {
		t.Error("unknown address should error")
	}
}

func TestIndexScanFindsClauses(t *testing.T) {
	f, _ := buildFamily(t)
	ienc, err := scw.NewEncoder(scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	qd, err := ienc.EncodeQuery(parse.MustTerm("married_couple(fred, X)"))
	if err != nil {
		t.Fatal(err)
	}
	res := f.Index().Scan(qd)
	scs, err := f.ByAddrs(res.Addrs)
	if err != nil {
		t.Fatal(err)
	}
	foundFred := false
	for _, sc := range scs {
		head, _, err := f.DecodeClause(sc)
		if err != nil {
			t.Fatal(err)
		}
		if unify.Unifiable(head, parse.MustTerm("married_couple(fred, W)")) {
			foundFred = true
		}
	}
	if !foundFred {
		t.Error("index scan lost the fred clause")
	}
}

func TestSerialisationRoundTrip(t *testing.T) {
	syms := symtab.New()
	b, err := NewBuilder("zoo", "animal", 2, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		head := parse.MustTerm(fmt.Sprintf("animal(sp%d, f(%d, [a,b|T]))", i, i))
		body := term.Term(term.Atom("true"))
		if i%3 == 0 {
			body = parse.MustTerm(fmt.Sprintf("helper(%d)", i))
		}
		if err := b.Add(head, body); err != nil {
			t.Fatal(err)
		}
	}
	f := b.Build()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Unmarshal(data, syms)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Module != "zoo" || f2.Functor != "animal" || f2.Arity != 2 {
		t.Fatalf("header = %s:%s/%d", f2.Module, f2.Functor, f2.Arity)
	}
	if f2.Len() != f.Len() || f2.SizeBytes() != f.SizeBytes() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", f2.Len(), f2.SizeBytes(), f.Len(), f.SizeBytes())
	}
	for i := range f.All() {
		a, b := f.All()[i], f2.All()[i]
		if a.Addr != b.Addr || a.SizeBytes != b.SizeBytes {
			t.Errorf("record %d framing differs", i)
		}
		h1, b1, err1 := f.DecodeClause(a)
		h2, b2, err2 := f2.DecodeClause(b)
		if err1 != nil || err2 != nil {
			t.Fatalf("decode errs: %v %v", err1, err2)
		}
		if h1.String() != h2.String() || b1.String() != b2.String() {
			t.Errorf("record %d clauses differ:\n%v :- %v\n%v :- %v", i, h1, b1, h2, b2)
		}
	}
	// Index survives too.
	ienc, _ := scw.NewEncoder(scw.DefaultParams)
	qd, _ := ienc.EncodeQuery(parse.MustTerm("animal(sp3, X)"))
	r1, r2 := f.Index().Scan(qd), f2.Index().Scan(qd)
	if len(r1.Addrs) != len(r2.Addrs) {
		t.Error("index behaviour changed after round trip")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	syms := symtab.New()
	if _, err := Unmarshal([]byte{1, 2, 3}, syms); err == nil {
		t.Error("garbage should fail")
	}
	f, _ := buildFamily(t)
	data, _ := f.MarshalBinary()
	if _, err := Unmarshal(data[:len(data)-3], syms); err == nil {
		t.Error("truncated file should fail")
	}
	if _, err := Unmarshal(append(data, 9), syms); err == nil {
		t.Error("trailing bytes should fail")
	}
	// A file whose records are another predicate's: the header's functor
	// (after magic, module and the functor length) no longer names them.
	foreign := bytes.Clone(data)
	foreign[4+2+len(f.Module)+2] ^= 1
	if _, err := Unmarshal(foreign, syms); err == nil || !strings.Contains(err.Error(), "does not belong") {
		t.Errorf("foreign heads: err = %v", err)
	}
	// A record count the blob cannot hold (it sizes the record slabs) is
	// refused before anything is allocated for it.
	inflated := bytes.Clone(data)
	binary.BigEndian.PutUint32(inflated[4+2+len(f.Module)+2+len(f.Functor)+2:], 0xFFFFFFFF)
	if _, err := Unmarshal(inflated, syms); err == nil || !strings.Contains(err.Error(), "exceed blob") {
		t.Errorf("inflated count: err = %v", err)
	}
}

func TestRuleAndFactMixPreservesOrder(t *testing.T) {
	// The paper's §1 point: rules and facts coexist in one predicate in
	// user order — coupled systems cannot do this, the PDBM store must.
	syms := symtab.New()
	b, err := NewBuilder("m", "fly", 1, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	add := func(cl string) {
		t.Helper()
		tt := parse.MustTerm(cl)
		if c, ok := tt.(*term.Compound); ok && c.Functor == ":-" && len(c.Args) == 2 {
			if err := b.Add(c.Args[0], c.Args[1]); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := b.Add(tt, term.Atom("true")); err != nil {
			t.Fatal(err)
		}
	}
	add("fly(tweety)")
	add("fly(X) :- bird(X), \\+ penguin(X)")
	add("fly(superman)")
	f := b.Build()
	if f.Len() != 3 {
		t.Fatal("expected 3 clauses")
	}
	_, body1, _ := f.DecodeClause(f.All()[1])
	if body1.Indicator() != ",/2" {
		t.Errorf("rule body = %v", body1)
	}
	_, body2, _ := f.DecodeClause(f.All()[2])
	if !term.Equal(body2, term.Atom("true")) {
		t.Errorf("fact body = %v", body2)
	}
}
