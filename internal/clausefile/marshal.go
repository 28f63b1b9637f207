package clausefile

import (
	"encoding/binary"
	"fmt"
	"slices"

	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/symtab"
)

// Serialised layout. The header and per-record metadata are big-endian;
// every record's Args/Heap words are hoisted into one shared little-endian
// word section, 8-byte aligned relative to the blob start:
//
//	magic     uint32
//	modLen    uint16, module bytes
//	funLen    uint16, functor bytes
//	arity     uint16
//	count     uint32
//	idxLen    uint32, secondary index blob (scw.Index)
//	wordCount uint32
//	pad       zero bytes to an 8-byte boundary (relative to blob start)
//	words     wordCount x uint32 little-endian
//	records: per clause
//	    headLen   uint32, head PIF meta record
//	    clauseLen uint32, clause PIF meta record
//
// Records consume the word section in order (head args, head heap,
// clause args, clause heap, clause by clause), so no record stores word
// offsets. Unmarshal hands each record views of the section wherever the
// host can read it in place (see wordsView) and decoded copies elsewhere,
// so a blob built anywhere loads everywhere with identical results.
//
// The symbol table is NOT serialised here: it is shared across the whole
// knowledge base and persisted by the KB layer; addresses and PIF content
// fields are stable only relative to that table.

// fileMagic marks a serialised compiled clause file.
const fileMagic = 0xDB0F11E6

// wordAlign is the alignment of the word section relative to the blob
// start. 8 exceeds the 4 bytes uint32 views need, leaving headroom for
// future 64-bit words.
const wordAlign = 8

// recordFraming is the two uint32 length prefixes of a clause record.
const recordFraming = 8

// MarshalBinary serialises the compiled clause file and its secondary
// index.
func (f *PredFile) MarshalBinary() ([]byte, error) {
	idx, err := f.index.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if len(f.Module) > 0xFFFF || len(f.Functor) > 0xFFFF || f.Arity > 0xFFFF {
		return nil, fmt.Errorf("clausefile: header fields too large")
	}
	wordCount := 0
	for _, sc := range f.clauses {
		wordCount += len(sc.Head.Args) + len(sc.Head.Heap) + len(sc.Clause.Args) + len(sc.Clause.Heap)
	}
	be := binary.BigEndian
	buf := make([]byte, 0, 64+len(idx)+f.size)
	buf = be.AppendUint32(buf, fileMagic)
	buf = be.AppendUint16(buf, uint16(len(f.Module)))
	buf = append(buf, f.Module...)
	buf = be.AppendUint16(buf, uint16(len(f.Functor)))
	buf = append(buf, f.Functor...)
	buf = be.AppendUint16(buf, uint16(f.Arity))
	buf = be.AppendUint32(buf, uint32(len(f.clauses)))
	buf = be.AppendUint32(buf, uint32(len(idx)))
	buf = append(buf, idx...)
	buf = be.AppendUint32(buf, uint32(wordCount))
	for len(buf)%wordAlign != 0 {
		buf = append(buf, 0)
	}
	for _, sc := range f.clauses {
		for _, ws := range [][]pif.Word{sc.Head.Args, sc.Head.Heap, sc.Clause.Args, sc.Clause.Heap} {
			for _, w := range ws {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
			}
		}
	}
	for _, sc := range f.clauses {
		for _, e := range []*pif.Encoded{sc.Head, sc.Clause} {
			meta, err := e.MarshalBinaryMeta()
			if err != nil {
				return nil, err
			}
			buf = be.AppendUint32(buf, uint32(len(meta)))
			buf = append(buf, meta...)
		}
	}
	return buf, nil
}

// Unmarshal parses a serialised compiled clause file against the shared
// symbol table. The records' words may be views into data, so data must
// stay alive and unmodified for as long as the file is in use. Corrupt or
// truncated input fails with an error, never a panic.
func Unmarshal(data []byte, syms *symtab.Table) (*PredFile, error) {
	r := &reader{data: data}
	if m := r.u32(); m != fileMagic {
		return nil, fmt.Errorf("clausefile: bad magic 0x%08x", m)
	}
	module := string(r.bytes(int(r.u16())))
	functor := string(r.bytes(int(r.u16())))
	arity := int(r.u16())
	count := int(r.u32())
	idxBlob := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	idx, err := scw.UnmarshalIndex(idxBlob)
	if err != nil {
		return nil, err
	}
	f := newPredFile(module, functor, arity, syms, idx)
	wordCount := int(r.u32())
	r.bytes((wordAlign - r.pos%wordAlign) % wordAlign)
	if wordCount < 0 || int64(wordCount)*4 > int64(len(data)) {
		return nil, fmt.Errorf("clausefile: word section of %d words exceeds blob", wordCount)
	}
	wb := r.bytes(wordCount * 4)
	if r.err != nil {
		return nil, r.err
	}
	wv := pif.NewWordView(wordsView(wb))
	// Every record has two length prefixes at least, so a count the rest
	// of the blob cannot hold is corrupt — refused before it sizes anything.
	if count > (len(data)-r.pos)/recordFraming {
		return nil, fmt.Errorf("clausefile: %d records exceed blob", count)
	}
	// A loaded file is resident for the daemon's life and the collector
	// walks it on every cycle, so it is built tight: the records in two
	// slabs instead of three objects each, one functor string per file, the
	// stream's slices sized once. That pays for the head stream (a mapped
	// store is about as large on the heap as before it had one) and leaves
	// the collector a third fewer objects to mark. The price: a caller
	// holding one record keeps its whole predicate's slabs alive.
	recs := make([]StoredClause, count)
	encs := make([]pif.Encoded, 2*count)
	f.clauses = make([]*StoredClause, 0, count)
	f.headOff = make([]uint32, 1, count+1)
	for i := 0; i < count; i++ {
		hb := r.bytes(int(r.u32()))
		cb := r.bytes(int(r.u32()))
		if r.err != nil {
			return nil, r.err
		}
		he, ce := &encs[2*i], &encs[2*i+1]
		if err := he.UnmarshalBinaryMeta(hb, wv); err != nil {
			return nil, fmt.Errorf("clausefile: record %d head: %w", i, err)
		}
		if err := ce.UnmarshalBinaryMeta(cb, wv); err != nil {
			return nil, fmt.Errorf("clausefile: record %d clause: %w", i, err)
		}
		// Builder.Add admits no other head; filters rely on it to test the
		// predicate once per retrieval rather than once per record.
		if he.Functor != f.Functor || he.Arity != f.Arity {
			return nil, fmt.Errorf("clausefile: record %d head %s does not belong to %s/%d", i, he.Indicator(), f.Functor, f.Arity)
		}
		// One functor string per file, not two per record.
		he.Functor = f.Functor
		if ce.Functor == pif.ClauseFunctor {
			ce.Functor = pif.ClauseFunctor
		}
		f.append(&recs[i], he, ce, recordSize(he, ce))
	}
	f.headWords = slices.Clone(f.headWords) // drop append's slack
	if r.pos != len(data) {
		return nil, fmt.Errorf("clausefile: %d trailing bytes", len(data)-r.pos)
	}
	if left := wv.Remaining(); left != 0 {
		return nil, fmt.Errorf("clausefile: %d unconsumed section words", left)
	}
	return f, nil
}

// reader is a bounds-checked cursor over a blob; the first out-of-range
// read latches err and every later read returns zero.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.err = fmt.Errorf("clausefile: truncated at byte %d", r.pos)
		return nil
	}
	v := r.data[r.pos : r.pos+n]
	r.pos += n
	return v
}

func (r *reader) u16() uint16 {
	if b := r.bytes(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}
