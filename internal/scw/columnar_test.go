package scw

import (
	"fmt"
	"reflect"
	"testing"

	"clare/internal/term"
	"clare/internal/termgen"
)

// buildGenIndex builds an index over n termgen clause heads of the given
// arity and returns it with m query descriptors drawn from the same
// generator. Pair derives half the heads from the queries, so the stream
// contains true unifiers, near-misses, masked entries (heads with
// variable arguments) and shared-variable queries.
func buildGenIndex(t testing.TB, seed int64, n, m, arity int, maskBits bool) (*Index, []QueryDescriptor) {
	t.Helper()
	enc, err := NewEncoder(Params{Width: 64, BitsPerKey: 3, MaskBits: maskBits})
	if err != nil {
		t.Fatal(err)
	}
	gen := termgen.New(seed)
	ix := NewIndex(enc)
	var qds []QueryDescriptor
	for i := 0; i < n || len(qds) < m; i++ {
		q, h := gen.Pair("p", arity)
		if ix.Len() < n {
			if err := ix.Add(h, uint32(ix.Len())); err != nil {
				t.Fatal(err)
			}
		}
		if len(qds) < m {
			qd, err := enc.EncodeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			qds = append(qds, qd)
		}
	}
	return ix, qds
}

func sameScan(t *testing.T, ix *Index, ref ScanResult, buf *ScanBuf, label string) {
	t.Helper()
	col := ix.Columnar()
	if len(buf.Pos) != len(ref.Addrs) {
		t.Fatalf("%s: columnar found %d survivors, reference %d", label, len(buf.Pos), len(ref.Addrs))
	}
	for i, p := range buf.Pos {
		if got := col.Addr(p); got != ref.Addrs[i] {
			t.Fatalf("%s: survivor %d: columnar addr %d, reference %d", label, i, got, ref.Addrs[i])
		}
	}
	if buf.MaskedHits != ref.MaskedHits {
		t.Fatalf("%s: columnar MaskedHits %d, reference %d", label, buf.MaskedHits, ref.MaskedHits)
	}
	if buf.EntriesScanned != ref.EntriesScanned || buf.BytesScanned != ref.BytesScanned {
		t.Fatalf("%s: scanned %d entries / %d bytes, reference %d / %d",
			label, buf.EntriesScanned, buf.BytesScanned, ref.EntriesScanned, ref.BytesScanned)
	}
}

// TestColumnarDifferential is the FS1 half of the issue's differential
// oracle: the columnar batch matcher must agree bit-for-bit with the
// per-entry reference matcher — same survivor set, same order, same
// MaskedHits — across at least 10k generated query/clause comparisons,
// including masked entries and shared-variable queries, with mask bits
// both on and off.
func TestColumnarDifferential(t *testing.T) {
	const wantComparisons = 10000
	for _, maskBits := range []bool{true, false} {
		total := 0
		for arity := 1; arity <= 4; arity++ {
			seed := int64(1000*arity + 7)
			ix, qds := buildGenIndex(t, seed, 200, 20, arity, maskBits)
			var buf ScanBuf
			for qi, qd := range qds {
				label := fmt.Sprintf("mask=%v arity=%d q=%d", maskBits, arity, qi)
				ref := ix.Scan(qd)
				ix.Columnar().ScanInto(qd, &buf)
				sameScan(t, ix, ref, &buf, label)
				total += ix.Len()

				// Chunked windows, including clamped and empty ones.
				for _, rng := range [][2]int{{0, 64}, {37, 151}, {64, 128}, {150, 10000}, {-5, 3}, {8, 8}, {120, 60}} {
					ref := ix.ScanRange(qd, rng[0], rng[1])
					ix.Columnar().ScanRangeInto(qd, rng[0], rng[1], &buf)
					sameScan(t, ix, ref, &buf, label+fmt.Sprintf(" range=%v", rng))
				}
			}
		}
		if total < wantComparisons {
			t.Fatalf("mask=%v: only %d query/clause comparisons, want ≥ %d", maskBits, total, wantComparisons)
		}
	}
}

// TestColumnarUnconstrained pins the married_couple(S,S) pathology: an
// all-variable query demands nothing, so both matchers must retrieve the
// entire predicate.
func TestColumnarUnconstrained(t *testing.T) {
	ix, _ := buildGenIndex(t, 42, 100, 1, 3, true)
	enc := ix.enc
	v := term.NewVar("S")
	qd, err := enc.EncodeQuery(term.New("p", v, v, v))
	if err != nil {
		t.Fatal(err)
	}
	if !qd.Unconstrained() {
		t.Fatalf("all-variable query should be unconstrained")
	}
	var buf ScanBuf
	ix.Columnar().ScanInto(qd, &buf)
	if len(buf.Pos) != ix.Len() {
		t.Fatalf("unconstrained scan kept %d of %d entries", len(buf.Pos), ix.Len())
	}
	sameScan(t, ix, ix.Scan(qd), &buf, "unconstrained")
}

// TestColumnarCache checks the Columnar view is built once and from then
// on kept in step with the index by Append and Remove — including a remove
// followed by an append, which leaves the length where it was.
func TestColumnarCache(t *testing.T) {
	ix, qds := buildGenIndex(t, 7, 150, 8, 2, true)
	c := ix.Columnar()
	inStep := func(label string) {
		t.Helper()
		if ix.Columnar() != c {
			t.Fatalf("%s: Columnar rebuilt, want the one view kept in step", label)
		}
		if c.Len() != ix.Len() {
			t.Fatalf("%s: Columnar has %d entries, index has %d", label, c.Len(), ix.Len())
		}
		fresh := NewColumnar(ix.Encoder().Params(), ix.Entries())
		if !reflect.DeepEqual(c.codes, fresh.codes) || !reflect.DeepEqual(c.masks, fresh.masks) ||
			!reflect.DeepEqual(c.addrs, fresh.addrs) || !reflect.DeepEqual(c.blockOr, fresh.blockOr) {
			t.Fatalf("%s: Columnar differs from a fresh build over the entries", label)
		}
		var buf ScanBuf
		for _, qd := range qds {
			c.ScanInto(qd, &buf)
			sameScan(t, ix, ix.Scan(qd), &buf, label)
		}
	}
	inStep("built")
	add := func(head term.Term) {
		t.Helper()
		if err := ix.Add(head, uint32(ix.Len())*100); err != nil {
			t.Fatal(err)
		}
	}
	add(term.New("p", term.Atom("a"), term.Atom("b")))
	inStep("append")
	ix.Remove(3, 100)
	add(term.New("p", term.NewVar("X"), term.Atom("b"))) // masked, same length as before the remove
	inStep("remove then append")
	for ix.Len() > 0 { // across every block boundary, down to empty
		ix.Remove(ix.Len()/2, 100)
		inStep("remove")
	}
	add(term.New("p", term.Atom("a"), term.Atom("b")))
	inStep("append to empty")
}

// TestScanRangeIntoZeroAlloc enforces the native engine's allocation
// discipline at the FS1 layer: once the survivor buffer has grown to the
// file size, scans allocate nothing.
func TestScanRangeIntoZeroAlloc(t *testing.T) {
	ix, qds := buildGenIndex(t, 11, 512, 4, 3, true)
	col := ix.Columnar()
	var buf ScanBuf
	col.ScanInto(qds[0], &buf) // warm-up: grows Pos once
	allocs := testing.AllocsPerRun(200, func() {
		for _, qd := range qds {
			col.ScanInto(qd, &buf)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScanInto allocated %v times per run, want 0", allocs)
	}
}

// FuzzColumnarScan drives the columnar matcher against the per-entry
// reference with fuzzer-chosen generator seeds, file sizes, scan windows
// and worker counts — the partitioned scan must agree with both. Run in
// CI for 20s under -race.
func FuzzColumnarScan(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(2), true, uint16(0), uint16(100), uint8(4))
	f.Add(int64(99), uint16(200), uint8(4), false, uint16(37), uint16(151), uint8(1))
	f.Add(int64(-3), uint16(64), uint8(1), true, uint16(64), uint16(64), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, arity uint8, maskBits bool, lo, hi uint16, workers uint8) {
		lowerParScanMin(t, 16)
		size := int(n%300) + 1
		ar := int(arity%4) + 1
		w := int(workers%12) + 1
		ix, qds := buildGenIndex(t, seed, size, 4, ar, maskBits)
		col := ix.Columnar()
		pool := NewScanPool(8)
		var buf ScanBuf
		var pb ParScanBuf
		for qi, qd := range qds {
			label := fmt.Sprintf("seed=%d n=%d arity=%d mask=%v q=%d", seed, size, ar, maskBits, qi)
			ref := ix.Scan(qd)
			col.ScanInto(qd, &buf)
			sameScan(t, ix, ref, &buf, label)
			col.ParScanInto(qd, w, pool, &pb)
			sameScan(t, ix, ref, &pb.Out, label+fmt.Sprintf(" parallel w=%d", w))
			refR := ix.ScanRange(qd, int(lo), int(hi))
			col.ScanRangeInto(qd, int(lo), int(hi), &buf)
			sameScan(t, ix, refR, &buf, label+" range")
			col.ParScanRangeInto(qd, int(lo), int(hi), w, pool, &pb)
			sameScan(t, ix, refR, &pb.Out, label+fmt.Sprintf(" parallel range w=%d", w))
		}
	})
}

// BenchmarkScanReference and BenchmarkScanColumnar expose the FS1 kernel
// speedup in isolation (bench/'s big_scan workload measures it end to
// end).
func benchIndex(b *testing.B, n int) (*Index, []QueryDescriptor) {
	return buildGenIndex(b, 1, n, 16, 3, true)
}

func BenchmarkScanReference(b *testing.B) {
	ix, qds := benchIndex(b, 4096)
	b.SetBytes(int64(ix.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Scan(qds[i%len(qds)])
	}
}

func BenchmarkScanColumnar(b *testing.B) {
	ix, qds := benchIndex(b, 4096)
	col := ix.Columnar()
	var buf ScanBuf
	b.SetBytes(int64(ix.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.ScanInto(qds[i%len(qds)], &buf)
	}
}

// groundIndex builds an all-ground index (no mask bits anywhere), the
// fact-base shape the unmasked fast path is built for.
func groundIndex(b *testing.B, n int) (*Index, []QueryDescriptor) {
	enc, err := NewEncoder(DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	ix := NewIndex(enc)
	atoms := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		h := term.New("p",
			term.Atom(atoms[i%len(atoms)]),
			term.Int(i%97),
			term.Atom(atoms[(i/3)%len(atoms)]))
		if err := ix.Add(h, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	var qds []QueryDescriptor
	for i := 0; i < 16; i++ {
		q := term.New("p", term.Atom(atoms[i%len(atoms)]), term.NewVar("X"), term.NewVar("Y"))
		qd, err := enc.EncodeQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		qds = append(qds, qd)
	}
	return ix, qds
}

func BenchmarkScanReferenceGround(b *testing.B) {
	ix, qds := groundIndex(b, 4096)
	b.SetBytes(int64(ix.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Scan(qds[i%len(qds)])
	}
}

func BenchmarkScanColumnarGround(b *testing.B) {
	ix, qds := groundIndex(b, 4096)
	col := ix.Columnar()
	var buf ScanBuf
	b.SetBytes(int64(ix.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.ScanInto(qds[i%len(qds)], &buf)
	}
}
