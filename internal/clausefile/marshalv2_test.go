package clausefile

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"clare/internal/parse"
	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/term"
)

// buildMixed builds a predicate with ground facts, variable-bearing
// heads (masked index entries), and rules — every record shape the
// store formats must carry.
func buildMixed(t testing.TB, n int) (*PredFile, *symtab.Table) {
	t.Helper()
	syms := symtab.New()
	b, err := NewBuilder("zoo", "animal", 2, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			if err := b.Add(parse.MustTerm(fmt.Sprintf("animal(cat%d, meows)", i)), term.Atom("true")); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := b.Add(term.New("animal", term.NewVar("X"), term.Atom(fmt.Sprintf("sound%d", i))),
				term.Atom("true")); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := b.Add(parse.MustTerm(fmt.Sprintf("animal(dog%d, Noise)", i)),
				parse.MustTerm(fmt.Sprintf("barks(dog%d, Noise)", i))); err != nil {
				t.Fatal(err)
			}
		default:
			if err := b.Add(parse.MustTerm(fmt.Sprintf("animal(f(bird%d, g(%d)), chirps)", i, i)),
				term.Atom("true")); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build(), syms
}

// equalFiles asserts two decoded predicate files are indistinguishable:
// identity, per-clause addressing and sizes, every record's metadata and
// words, and the secondary index bytes.
func equalFiles(t *testing.T, label string, a, b *PredFile) {
	t.Helper()
	if a.Module != b.Module || a.Functor != b.Functor || a.Arity != b.Arity {
		t.Fatalf("%s: identity %s:%s/%d vs %s:%s/%d",
			label, a.Module, a.Functor, a.Arity, b.Module, b.Functor, b.Arity)
	}
	if a.Len() != b.Len() || a.SizeBytes() != b.SizeBytes() {
		t.Fatalf("%s: len/size %d/%d vs %d/%d", label, a.Len(), a.SizeBytes(), b.Len(), b.SizeBytes())
	}
	ai, err := a.Index().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bi, err := b.Index().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ai, bi) {
		t.Fatalf("%s: secondary index bytes differ", label)
	}
	for i := range a.All() {
		sa, sb := a.All()[i], b.All()[i]
		if sa.Addr != sb.Addr || sa.Seq != sb.Seq || sa.SizeBytes != sb.SizeBytes {
			t.Fatalf("%s: clause %d framing %d/%d/%d vs %d/%d/%d",
				label, i, sa.Addr, sa.Seq, sa.SizeBytes, sb.Addr, sb.Seq, sb.SizeBytes)
		}
		equalRecords(t, fmt.Sprintf("%s: clause %d head", label, i), sa.Head, sb.Head)
		equalRecords(t, fmt.Sprintf("%s: clause %d clause", label, i), sa.Clause, sb.Clause)
	}
}

func equalRecords(t *testing.T, label string, a, b *pif.Encoded) {
	t.Helper()
	if a.Functor != b.Functor || a.Arity != b.Arity || a.Side != b.Side || a.NumVars != b.NumVars {
		t.Fatalf("%s: record identity %s/%d side %d vars %d vs %s/%d side %d vars %d",
			label, a.Functor, a.Arity, a.Side, a.NumVars, b.Functor, b.Arity, b.Side, b.NumVars)
	}
	if len(a.Args) != len(b.Args) || len(a.Heap) != len(b.Heap) || len(a.VarNames) != len(b.VarNames) {
		t.Fatalf("%s: section lengths %d/%d/%d vs %d/%d/%d", label,
			len(a.Args), len(a.Heap), len(a.VarNames), len(b.Args), len(b.Heap), len(b.VarNames))
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			t.Fatalf("%s: arg word %d: %v vs %v", label, i, a.Args[i], b.Args[i])
		}
	}
	for i := range a.Heap {
		if a.Heap[i] != b.Heap[i] {
			t.Fatalf("%s: heap word %d: %v vs %v", label, i, a.Heap[i], b.Heap[i])
		}
	}
	for i := range a.VarNames {
		if a.VarNames[i] != b.VarNames[i] {
			t.Fatalf("%s: var name %d: %q vs %q", label, i, a.VarNames[i], b.VarNames[i])
		}
	}
}

// misaligned returns a copy of b at an odd address, where wordsView must
// decode instead of viewing.
func misaligned(b []byte) []byte {
	shifted := make([]byte, len(b)+1)
	copy(shifted[1:], b)
	return shifted[1:]
}

// TestV2RoundTripEquivalence: a marshalled predicate decodes to a file
// indistinguishable from the one that was built — whether its words are
// views of the blob or decoded copies — with per-clause SizeBytes intact,
// so disk accounting and stats never depend on how a store was loaded;
// and marshalling the decoded file reproduces the blob.
func TestV2RoundTripEquivalence(t *testing.T) {
	orig, syms := buildMixed(t, 41)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := Unmarshal(blob, syms)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Unmarshal(misaligned(blob), syms)
	if err != nil {
		t.Fatal(err)
	}
	equalFiles(t, "orig vs viewed", orig, viewed)
	equalFiles(t, "viewed vs copied", viewed, copied)
	again, err := viewed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Error("re-marshalling a decoded file changed the blob")
	}
}

// TestHeadStreamRoundTrip: the head stream is built where records are
// appended, so a Builder-made file and its Unmarshal-ed image (viewed or
// copied) carry the same stream word for word: every head's argument
// words back to back, and the variable-free flag set exactly on the heads
// without a named or anonymous variable.
func TestHeadStreamRoundTrip(t *testing.T) {
	syms := symtab.New()
	b, err := NewBuilder("zoo", "animal", 2, syms, scw.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	heads := []struct {
		text   string
		ground bool
	}{
		{"animal(cat, meows)", true},
		{"animal(X, barks)", false},
		{"animal(_, purrs)", false},
		{"animal(f(bird, g(7)), chirps)", true},
		{"animal(f(bird, Y), chirps)", false},
		{"animal([1, 2, 3], date(1, 2, 3))", true},
		{"animal([1, 2 | T], 2.5)", false},
		{"animal(-3, [])", true},
	}
	for _, h := range heads {
		if err := b.Add(parse.MustTerm(h.text), term.Atom("true")); err != nil {
			t.Fatal(err)
		}
	}
	orig := b.Build()
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for label, data := range map[string][]byte{"viewed": blob, "copied": misaligned(blob)} {
		loaded, err := Unmarshal(data, syms)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(orig.headWords, loaded.headWords) || !slices.Equal(orig.headOff, loaded.headOff) {
			t.Fatalf("%s: head stream differs from the built file's", label)
		}
		for i, sc := range loaded.All() {
			args, ground := loaded.HeadArgs(i)
			if !slices.Equal(args, sc.Head.Args) {
				t.Fatalf("%s: %s: stream holds %v, head is %v", label, heads[i].text, args, sc.Head.Args)
			}
			if ground != heads[i].ground {
				t.Fatalf("%s: %s: variable-free flag %v", label, heads[i].text, ground)
			}
		}
	}
}

// TestV2UnalignedFallsBackToHeap: a word section at an odd address
// cannot be viewed in place; it must decode to a copy with identical
// results rather than fault, while an aligned one on a little-endian
// host is a view of the blob's own bytes.
func TestV2UnalignedFallsBackToHeap(t *testing.T) {
	orig, syms := buildMixed(t, 9)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shifted := misaligned(blob)
	f, err := Unmarshal(shifted, syms)
	if err != nil {
		t.Fatal(err)
	}
	clear(shifted)
	equalFiles(t, "orig vs misaligned, buffer wiped", orig, f)

	section := make([]byte, 16)
	section[4] = 7
	if w := wordsView(section[1:13]); len(w) != 3 || w[0] != 7<<24 {
		t.Errorf("misaligned section decoded to %v", w)
	}
	w := wordsView(section[:12])
	if len(w) != 3 || w[1] != 7 {
		t.Fatalf("aligned section decoded to %v", w)
	}
	section[4] = 9
	if hostLittleEndian != (w[1] == 9) {
		t.Errorf("little-endian host %v, but aligned section is a view: %v", hostLittleEndian, w[1] == 9)
	}
}

// TestV2CorruptionFailsClosed: every strict prefix of a blob fails with
// an error (never a panic, never a silently short file), viewed or
// copied.
func TestV2CorruptionFailsClosed(t *testing.T) {
	orig, syms := buildMixed(t, 17)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := Unmarshal(blob[:n], syms); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(blob))
		}
		if _, err := Unmarshal(misaligned(blob[:n]), syms); err == nil {
			t.Fatalf("misaligned decode of %d/%d-byte prefix succeeded", n, len(blob))
		}
	}
	// Single-byte flips must never panic; erroring or decoding to some
	// file are both acceptable (flipping a symbol-offset byte can still
	// parse).
	for n := 0; n < len(blob); n += 3 {
		bad := append([]byte(nil), blob...)
		bad[n] ^= 0x5A
		_, _ = Unmarshal(bad, syms)
		_, _ = Unmarshal(misaligned(bad), syms)
	}
}

// FuzzSlabMap drives the decoder over arbitrary bytes at both
// alignments: no input may panic, and the viewed and the copied decode
// must accept the same inputs and produce indistinguishable files.
func FuzzSlabMap(f *testing.F) {
	orig, _ := buildMixed(f, 13)
	if blob, err := orig.MarshalBinary(); err == nil {
		f.Add(blob)
	}
	f.Add([]byte{0xDB, 0x0F, 0x11, 0xE5, 0, 0, 0, 0}) // the retired v1 magic
	f.Add([]byte{})
	f.Add([]byte{0xDB, 0x0F, 0x11, 0xE6, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := symtab.New()
		viewed, verr := Unmarshal(append([]byte(nil), data...), syms)
		copied, cerr := Unmarshal(misaligned(data), syms)
		if (verr == nil) != (cerr == nil) {
			t.Fatalf("decodes disagree: aligned err = %v, misaligned err = %v", verr, cerr)
		}
		if verr != nil {
			return
		}
		equalFiles(t, "viewed vs copied", viewed, copied)
	})
}
