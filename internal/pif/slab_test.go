package pif

import (
	"testing"

	"clare/internal/symtab"
	"clare/internal/term"
)

// TestSlabRoundTrip checks that records decoded out of one shared word
// section are bit-identical to their encodings and that the views
// cannot grow into each other.
func TestSlabRoundTrip(t *testing.T) {
	syms := symtab.New()
	enc := NewEncoder(syms)
	terms := []term.Term{
		term.New("p", term.Atom("a"), term.Int(3)),
		term.New("p", term.NewVar("X"), term.New("f", term.NewVar("X"), term.Atom("b"))),
		term.New("p", term.ListTail(term.NewVar("T"), term.Int(1), term.Int(2)), term.Float(2.5)),
	}
	var plain []*Encoded
	var metas [][]byte
	var section []Word
	for _, tm := range terms {
		e, err := enc.Encode(tm, DBSide)
		if err != nil {
			t.Fatal(err)
		}
		data, err := e.MarshalBinaryMeta()
		if err != nil {
			t.Fatal(err)
		}
		plain, metas = append(plain, e), append(metas, data)
		section = append(append(section, e.Args...), e.Heap...)
	}
	wv := NewWordView(section)
	for i, data := range metas {
		var viewed Encoded
		if err := viewed.UnmarshalBinaryMeta(data, wv); err != nil {
			t.Fatal(err)
		}
		if len(plain[i].Args) != len(viewed.Args) || len(plain[i].Heap) != len(viewed.Heap) {
			t.Fatalf("term %d: section decode shapes differ", i)
		}
		for j := range viewed.Args {
			if plain[i].Args[j] != viewed.Args[j] {
				t.Fatalf("term %d arg word %d: %08x != %08x", i, j, plain[i].Args[j], viewed.Args[j])
			}
		}
		for j := range viewed.Heap {
			if plain[i].Heap[j] != viewed.Heap[j] {
				t.Fatalf("term %d heap word %d: %08x != %08x", i, j, plain[i].Heap[j], viewed.Heap[j])
			}
		}
		// Views must be capacity-capped: appending to one cannot touch
		// the section words handed to the next record.
		if cap(viewed.Args) != len(viewed.Args) || cap(viewed.Heap) != len(viewed.Heap) {
			t.Fatalf("term %d: views not capacity-capped", i)
		}
	}
	if wv.Remaining() != 0 {
		t.Fatalf("%d words left after the last record", wv.Remaining())
	}
}

// TestSlabGrowth checks a word section never grows: appending to a view
// reallocates instead of overwriting its neighbour, and a request beyond
// the section is an error that consumes nothing.
func TestSlabGrowth(t *testing.T) {
	wv := NewWordView(make([]Word, 6))
	a, err := wv.Take(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wv.Take(2)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 9
	a = append(a, 7)
	if b[0] != 9 || len(a) != 4 {
		t.Fatal("append to a view disturbed its neighbour")
	}
	for _, n := range []int{2, -1} {
		if _, err := wv.Take(n); err == nil {
			t.Fatalf("Take(%d) with 1 word left should fail", n)
		}
	}
	if wv.Remaining() != 1 {
		t.Fatalf("failed Takes consumed words: %d left", wv.Remaining())
	}
	if w, err := wv.Take(0); w != nil || err != nil {
		t.Fatal("Take(0) should be nil, nil")
	}
}
