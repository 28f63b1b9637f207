package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"clare/internal/clausefile"
	"clare/internal/mmapfile"
	"clare/internal/symtab"
)

// Knowledge-base store format (big-endian framing) — one compiled clause
// file plus its secondary file per predicate, behind one shared symbol
// table:
//
//	magic    uint32 0xC1A7E1DB
//	symLen   uint32, symbol table blob
//	count    uint32 predicate files
//	per file:
//	    len       uint32  clausefile blob length
//	    ruleCount uint32  clauses with a non-true body
//	    padLen    uint32  zero bytes following, aligning the blob
//	    pad       [padLen]byte
//	    blob      clausefile
//
// Each predicate blob starts 8-aligned in the file, and the blob's own
// word section is 8-aligned relative to the blob, so in any 8-aligned
// image of the file — a page-aligned mapping, or the file read into one
// buffer — every word section is aligned in memory and the records view
// it in place instead of decoding it. ruleCount is computed at save time
// so loading never decodes a clause body.
//
// The symbol table is saved once and shared by every predicate file, so
// PIF content fields (symbol offsets) remain valid across the round trip.
//
// parseStore is the only reader of this layout; LoadRetriever and
// MapRetriever differ only in where the image's bytes come from.

const (
	kbMagic = 0xC1A7E1DB
	// kbMagicV1 marked the retired per-record store format. It is
	// recognised only to tell its owner what to do.
	kbMagicV1 = 0xC1A7E0DB

	// kbBlobAlign aligns each predicate blob in the file so an aligned
	// image preserves the blob-internal word alignment.
	kbBlobAlign = 8
)

// SaveKB serialises the retriever's predicates and shared symbol table.
func (r *Retriever) SaveKB(w io.Writer) error {
	return r.SaveKBPartition(w, nil)
}

// SaveKBPartition serialises the predicates selected by keep (nil keeps
// all) with the full shared symbol table. This is the cluster build
// path: kbc -shards writes one partition per shard group, selected by
// the shard function, and every partition is an ordinary store because
// the symbol table is written whole, so PIF content fields remain valid
// in every slice.
func (r *Retriever) SaveKBPartition(w io.Writer, keep func(Indicator) bool) error {
	r.predsMu.RLock()
	defer r.predsMu.RUnlock()
	symBlob, err := r.syms.MarshalBinary()
	if err != nil {
		return err
	}
	// Deterministic order for reproducible files.
	kept := sortedIndicators(r.preds)
	if keep != nil {
		kept = slices.DeleteFunc(kept, func(pi Indicator) bool { return !keep(pi) })
	}
	be := binary.BigEndian
	off := 0
	emit := func(chunks ...[]byte) error {
		for _, b := range chunks {
			n, err := w.Write(b)
			off += n
			if err != nil {
				return err
			}
		}
		return nil
	}
	hdr := be.AppendUint32(be.AppendUint32(nil, kbMagic), uint32(len(symBlob)))
	if err := emit(hdr, symBlob, be.AppendUint32(nil, uint32(len(kept)))); err != nil {
		return err
	}
	for _, pi := range kept {
		pred := r.preds[pi]
		blob, err := pred.File.MarshalBinary()
		if err != nil {
			return err
		}
		padLen := (kbBlobAlign - (off+12)%kbBlobAlign) % kbBlobAlign
		hdr = be.AppendUint32(hdr[:0], uint32(len(blob)))
		hdr = be.AppendUint32(hdr, uint32(pred.RuleCount))
		hdr = be.AppendUint32(hdr, uint32(padLen))
		hdr = append(hdr, make([]byte, padLen)...)
		if err := emit(hdr, blob); err != nil {
			return err
		}
	}
	return nil
}

func sortedIndicators(m map[Indicator]*Predicate) []Indicator {
	out := make([]Indicator, 0, len(m))
	for pi := range m {
		out = append(out, pi)
	}
	slices.SortFunc(out, func(a, b Indicator) int {
		return cmp.Or(cmp.Compare(a.Functor, b.Functor), cmp.Compare(a.Arity, b.Arity))
	})
	return out
}

// LoadRetriever reads a saved knowledge base into a fresh retriever. The
// store's symbol table becomes the retriever's, so subsequent queries
// intern consistently with the stored PIF encodings.
func LoadRetriever(cfg Config, rd io.Reader) (*Retriever, error) {
	// Not io.ReadAll: its 1.25x growth copies a multi-megabyte store
	// five times over where the buffer's doubling copies it twice.
	var image bytes.Buffer
	if _, err := image.ReadFrom(rd); err != nil {
		return nil, err
	}
	return parseStore(cfg, image.Bytes())
}

// MapRetriever loads the knowledge base saved at path from a read-only
// mapping of the file where the platform has one, and from the file read
// into memory where it does not; it reports which (as StoreMapped does
// afterwards). The bytes stay pinned for the retriever's lifetime and no
// write touches them: a loaded record keeps its views into the image, an
// appended one lives on the heap, and a removal only drops heap-side
// bookkeeping (Predicate.Append, Predicate.Remove).
func MapRetriever(cfg Config, path string) (*Retriever, bool, error) {
	m, err := mmapfile.Map(path)
	if err != nil {
		return nil, false, err
	}
	r, err := parseStore(cfg, m.Data())
	if err != nil {
		m.Close()
		return nil, false, err
	}
	r.store = m
	return r, m.Mapped(), nil
}

// StoreMapped reports whether the retriever's base image is a read-only
// file mapping (MapRetriever on a platform with mmap).
func (r *Retriever) StoreMapped() bool { return r.store.Mapped() }

// CloseStore releases the store image MapRetriever pinned, if any. Only
// call it when the retriever is no longer in use: loaded predicates
// reference the image directly.
func (r *Retriever) CloseStore() error {
	m := r.store
	r.store = nil
	return m.Close()
}

// parseStore walks a store image into a fresh retriever. Predicates keep
// views into data, which must outlive the retriever unmodified. Every
// length in the image is checked against the bytes actually present
// before anything is sized by it, and the image must end where the last
// predicate does.
func parseStore(cfg Config, data []byte) (*Retriever, error) {
	rd := &byteReader{data: data}
	switch m := rd.u32(); {
	case rd.err != nil:
		return nil, rd.err
	case m == kbMagicV1:
		return nil, fmt.Errorf("core: v1 store: rebuild with kbc")
	case m != kbMagic:
		return nil, fmt.Errorf("core: bad knowledge-base magic 0x%08x", m)
	}
	symBlob := rd.bytes(int(rd.u32()))
	if rd.err != nil {
		return nil, rd.err
	}
	syms, err := symtab.UnmarshalTable(symBlob)
	if err != nil {
		return nil, err
	}
	r, err := NewWithSymbols(cfg, syms)
	if err != nil {
		return nil, err
	}
	count := int(rd.u32())
	for i := 0; i < count; i++ {
		blobLen := int(rd.u32())
		ruleCount := int(rd.u32())
		padLen := int(rd.u32())
		if rd.err == nil && padLen >= kbBlobAlign {
			return nil, fmt.Errorf("core: predicate file %d: bad pad length %d", i, padLen)
		}
		rd.bytes(padLen)
		blob := rd.bytes(blobLen)
		if rd.err != nil {
			return nil, rd.err
		}
		f, err := clausefile.Unmarshal(blob, syms)
		if err != nil {
			return nil, fmt.Errorf("core: predicate file %d: %w", i, err)
		}
		if ruleCount < 0 || ruleCount > f.Len() {
			return nil, fmt.Errorf("core: predicate %s/%d: rule count %d exceeds %d clauses",
				f.Functor, f.Arity, ruleCount, f.Len())
		}
		pred := &Predicate{File: f, RuleCount: ruleCount}
		for _, ent := range f.Index().Entries() {
			if ent.Mask != 0 {
				pred.MaskedClauses++
			}
		}
		r.preds[Indicator{Functor: f.Functor, Arity: f.Arity}] = pred
	}
	if rd.pos != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes in knowledge base", len(data)-rd.pos)
	}
	return r, nil
}

// byteReader is a bounds-checked cursor over a store image; the first
// out-of-range read latches err and every later read returns zero.
type byteReader struct {
	data []byte
	pos  int
	err  error
}

func (r *byteReader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.err = fmt.Errorf("core: truncated knowledge base at byte %d", r.pos)
		return nil
	}
	v := r.data[r.pos : r.pos+n]
	r.pos += n
	return v
}
