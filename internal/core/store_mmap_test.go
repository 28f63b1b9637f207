package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clare/internal/parse"
	"clare/internal/term"
)

// storeFixture builds a retriever with facts, masked (variable-bearing)
// heads, and rules, saves it, and returns the retriever and store path.
func storeFixture(t *testing.T) (*Retriever, string) {
	t.Helper()
	r := familyRetriever(t, 40, 4)
	rules := []ClauseTerm{
		{Head: parse.MustTerm("fly(tweety)")},
		{Head: term.New("fly", term.NewVar("X")), Body: parse.MustTerm("bird(X)")},
	}
	if _, err := r.AddClauses("flying", rules); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.clare")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SaveKB(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return r, path
}

// diffRetrievers asserts two retrievers answer a goal identically in a
// mode: same candidates address by address, same funnel statistics.
func diffRetrievers(t *testing.T, label string, a, b *Retriever, goalSrc string, mode SearchMode) {
	t.Helper()
	goal := parse.MustTerm(goalSrc)
	art, aerr := a.Retrieve(goal, mode)
	brt, berr := b.Retrieve(goal, mode)
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("%s %s %v: err %v vs %v", label, goalSrc, mode, aerr, berr)
	}
	if aerr != nil {
		return
	}
	if len(art.Candidates) != len(brt.Candidates) {
		t.Fatalf("%s %s %v: %d vs %d candidates", label, goalSrc, mode,
			len(art.Candidates), len(brt.Candidates))
	}
	for i := range art.Candidates {
		if art.Candidates[i].Addr != brt.Candidates[i].Addr {
			t.Fatalf("%s %s %v: candidate %d addr %d vs %d", label, goalSrc, mode,
				i, art.Candidates[i].Addr, brt.Candidates[i].Addr)
		}
	}
	as, bs := art.Stats, brt.Stats
	if as.AfterFS1 != bs.AfterFS1 || as.AfterFS2 != bs.AfterFS2 ||
		as.MaskedHits != bs.MaskedHits || as.IndexBytes != bs.IndexBytes ||
		as.ClauseBytes != bs.ClauseBytes {
		t.Fatalf("%s %s %v: stats %+v vs %+v", label, goalSrc, mode, as, bs)
	}
}

func storeGoals() []string {
	return []string{
		"married_couple(husband3, X)",
		"married_couple(S, S)",
		"married_couple(X, Y)",
		"married_couple(nobody, X)",
		"fly(tweety)",
		"fly(Z)",
	}
}

// TestStoreHeapMmapEquivalence: a kbc-built store answers identically
// whether its bytes came from a reader or from a read-only mapping of
// the file — candidates, funnel statistics, disk-size accounting, and
// per-predicate rule/mask counts all match the retriever that built it.
func TestStoreHeapMmapEquivalence(t *testing.T) {
	orig, path := storeFixture(t)
	hf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := LoadRetriever(DefaultConfig(), hf)
	hf.Close()
	if err != nil {
		t.Fatal(err)
	}
	mm, mapped, err := MapRetriever(DefaultConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.CloseStore()
	if runtime.GOOS == "linux" && !mapped {
		t.Fatal("a store file on linux should be mapped")
	}
	if heap.StoreMapped() {
		t.Error("retriever loaded from a reader claims a mapped store")
	}
	if mm.StoreMapped() != mapped {
		t.Errorf("StoreMapped() = %v, MapRetriever said %v", mm.StoreMapped(), mapped)
	}
	for _, goalSrc := range storeGoals() {
		for _, mode := range modes() {
			diffRetrievers(t, "orig/heap", orig, heap, goalSrc, mode)
			diffRetrievers(t, "heap/mmap", heap, mm, goalSrc, mode)
		}
	}
	for _, goalSrc := range []string{"married_couple(a, b)", "fly(x)"} {
		p1, err := heap.Predicate(parse.MustTerm(goalSrc))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := mm.Predicate(parse.MustTerm(goalSrc))
		if err != nil {
			t.Fatal(err)
		}
		if p1.RuleCount != p2.RuleCount || p1.MaskedClauses != p2.MaskedClauses {
			t.Errorf("%s: rules %d vs %d, masked %d vs %d", goalSrc,
				p1.RuleCount, p2.RuleCount, p1.MaskedClauses, p2.MaskedClauses)
		}
		if p1.File.SizeBytes() != p2.File.SizeBytes() {
			t.Errorf("%s: SizeBytes %d vs %d across store paths", goalSrc,
				p1.File.SizeBytes(), p2.File.SizeBytes())
		}
	}
}

// TestStoreMmapWritesOverlayHeap: writes to a mapped retriever — in place
// (Append, Remove) or a whole-predicate AddClauses — live on the heap; the
// mapped base image is never written, the store file never changes, and
// retrieval sees the union.
func TestStoreMmapWritesOverlayHeap(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.clare")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mm, _, err := MapRetriever(DefaultConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.CloseStore()
	couples := mm.preds[Indicator{"married_couple", 2}]
	c, err := couples.Compile(parse.MustTerm("married_couple(newman, newwife)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	couples.Append(c)
	if err := couples.Remove(0); err != nil { // a record that views the image
		t.Fatal(err)
	}
	if _, err := mm.AddClauses("flying", []ClauseTerm{{Head: parse.MustTerm("fly(newbird)")}}); err != nil {
		t.Fatal(err)
	}
	unifiers := func(r *Retriever, goal string) int {
		t.Helper()
		rt, err := r.Retrieve(parse.MustTerm(goal), ModeFS1FS2)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := rt.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for goal, want := range map[string]int{
		"married_couple(newman, X)":   1,
		"married_couple(husband0, X)": 0,
		"married_couple(husband1, X)": 1,
		"fly(newbird)":                1,
		"fly(tweety)":                 0,
	} {
		if got := unifiers(mm, goal); got != want {
			t.Errorf("%s after the writes: %d true unifiers, want %d", goal, got, want)
		}
	}
	// The image is untouched: a fresh mapping is the store as saved, and
	// the file is the golden bytes.
	fresh, _, err := MapRetriever(DefaultConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.CloseStore()
	if got, want := goldenAnswers(t, fresh), goldenAnswers(t, goldenRetriever(t)); !reflect.DeepEqual(got, want) {
		t.Errorf("writes leaked into the mapped base image:\n got %+v\nwant %+v", got, want)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, golden) {
		t.Errorf("golden_v2.clare changed on disk (%v)", err)
	}
}

// TestStoreV1Compat: the retired v1 format is recognised by its magic
// and refused with the instruction to rebuild — through both entry
// points, for a store the parent's writer produced and for a bare header
// — and never decoded.
func TestStoreV1Compat(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.clare"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, image := range map[string][]byte{"legacy": legacy, "header": legacy[:4]} {
		path := filepath.Join(dir, name+".clare")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := LoadRetriever(DefaultConfig(), bytes.NewReader(image))
		_, mapped, merr := MapRetriever(DefaultConfig(), path)
		for entry, err := range map[string]error{"LoadRetriever": lerr, "MapRetriever": merr} {
			if err == nil || !strings.Contains(err.Error(), "v1 store: rebuild with kbc") {
				t.Errorf("%s of v1 %s: err = %v, want the rebuild instruction", entry, name, err)
			}
		}
		if mapped {
			t.Errorf("a refused v1 %s reports a mapped store", name)
		}
	}
}

// loadBoth loads a store image through both entry points and returns
// their errors, closing whatever loaded.
func loadBoth(t *testing.T, image []byte) (loadErr, mapErr error) {
	t.Helper()
	_, loadErr = LoadRetriever(DefaultConfig(), bytes.NewReader(image))
	path := filepath.Join(t.TempDir(), "image.clare")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	r, _, mapErr := MapRetriever(DefaultConfig(), path)
	if mapErr == nil {
		r.CloseStore()
	}
	return loadErr, mapErr
}

// lengthFields returns the offset of every length field on the way to
// the first predicate's records: the store header's, the first
// predicate header's, and the clause-file blob's own.
func lengthFields(t *testing.T, data []byte) map[string]int {
	t.Helper()
	be := binary.BigEndian
	fields := map[string]int{"symLen": 4}
	pos := 8 + int(be.Uint32(data[4:]))
	fields["count"] = pos
	fields["blobLen"], fields["ruleCount"], fields["padLen"] = pos+4, pos+8, pos+12
	pos += 16 + int(be.Uint32(data[pos+12:]))
	pos += 4 // blob magic
	pos += 2 + int(be.Uint16(data[pos:]))
	pos += 2 + int(be.Uint16(data[pos:]))
	pos += 2 // arity
	fields["blob.count"], fields["blob.idxLen"] = pos, pos+4
	pos += 8 + int(be.Uint32(data[pos+4:]))
	fields["blob.wordCount"] = pos
	return fields
}

// TestStoreCorruptionFailsClosed: truncated, over-long, bit-flipped and
// hostile store images fail with an error through both entry points —
// never a panic, never a silently short knowledge base, and never an
// allocation sized by a length the image cannot back.
func TestStoreCorruptionFailsClosed(t *testing.T) {
	_, path := storeFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lerr, merr := loadBoth(t, data); lerr != nil || merr != nil {
		t.Fatalf("intact store: LoadRetriever %v, MapRetriever %v", lerr, merr)
	}
	for frac := 1; frac < 8; frac++ {
		n := len(data) * frac / 8
		if lerr, merr := loadBoth(t, data[:n]); lerr == nil || merr == nil {
			t.Errorf("%d/%d-byte prefix: LoadRetriever %v, MapRetriever %v", n, len(data), lerr, merr)
		}
	}
	long := append(append([]byte(nil), data...), "garbage!"...)
	if lerr, merr := loadBoth(t, long); lerr == nil || merr == nil {
		t.Errorf("appended garbage: LoadRetriever %v, MapRetriever %v", lerr, merr)
	}
	// A length field claiming 4 GiB must cost an error, not 4 GiB: what
	// a load allocates stays within a small multiple of the file plus
	// the fixed cost of an empty retriever.
	budget := uint64(8*len(data) + 256<<10)
	for name, off := range lengthFields(t, data) {
		bad := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(bad[off:], 0xFFFFFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lerr, merr := loadBoth(t, bad)
		runtime.ReadMemStats(&after)
		if lerr == nil || merr == nil {
			t.Errorf("%s = 0xFFFFFFFF: LoadRetriever %v, MapRetriever %v", name, lerr, merr)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s = 0xFFFFFFFF: loads allocated %d bytes for a %d-byte file (budget %d)",
				name, got, len(data), budget)
		}
	}
	// Bit flips must never panic; loading or erroring are both legal.
	for off := 0; off < len(data); off += 97 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		loadBoth(t, bad)
	}
}

// TestStoreGoldenV2 pins the store format to a file the parent's writer
// produced: today's SaveKB must reproduce it byte for byte, and both
// entry points must load it into a retriever that answers exactly like
// the one compiled from source — candidate addresses and record sizes,
// every stage statistic, and the per-predicate accounting.
func TestStoreGoldenV2(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.clare")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compiled := goldenRetriever(t)
	var saved bytes.Buffer
	if err := compiled.SaveKB(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), golden) {
		t.Fatalf("SaveKB wrote %d bytes that differ from the %d-byte golden store: the format moved",
			saved.Len(), len(golden))
	}
	loaded, err := LoadRetriever(DefaultConfig(), bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	mm, mapped, err := MapRetriever(DefaultConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.CloseStore()
	if runtime.GOOS == "linux" && !(mapped && mm.StoreMapped()) {
		t.Error("MapRetriever of a store file on linux should report a mapped store")
	}
	want := goldenAnswers(t, compiled)
	for name, r := range map[string]*Retriever{"LoadRetriever": loaded, "MapRetriever": mm} {
		if got := goldenAnswers(t, r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s answers differ from the compiled retriever:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// goldenAnswers runs a fixed goal list in all four modes and records
// everything a store path could change.
func goldenAnswers(t *testing.T, r *Retriever) []string {
	t.Helper()
	var out []string
	for _, pi := range r.Predicates() {
		p := r.preds[pi]
		out = append(out, fmt.Sprintf("%v: clauses %d bytes %d index %d rules %d masked %d", pi,
			p.File.Len(), p.File.SizeBytes(), p.File.IndexSizeBytes(), p.RuleCount, p.MaskedClauses))
	}
	for _, goalSrc := range []string{
		"married_couple(husband3, X)",
		"married_couple(S, S)",
		"married_couple(nobody, X)",
		"fly(tweety)",
		"fly(plane(P))",
		"fly(Z)",
		"rel(a, f(B, c), L)",
		"rel(X, g(X), X)",
		"rel(k, 42, S)",
		"rel(q, q, q)",
	} {
		for _, mode := range modes() {
			rt, err := r.Retrieve(parse.MustTerm(goalSrc), mode)
			if err != nil {
				out = append(out, fmt.Sprintf("%s %v: error %v", goalSrc, mode, err))
				continue
			}
			line := fmt.Sprintf("%s %v: %+v:", goalSrc, mode, rt.Stats)
			for _, c := range rt.Candidates {
				line += fmt.Sprintf(" %d+%d", c.Addr, c.SizeBytes)
			}
			out = append(out, line)
		}
	}
	return out
}
