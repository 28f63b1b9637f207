package pif

import (
	"encoding/binary"
	"fmt"
)

// A stored clause record is split in two. The variable-length metadata
// (functor, variable names, counts) is a per-record meta blob; the
// Args/Heap words of every record in a predicate live in one shared word
// section the records consume in order, laid out little-endian and
// aligned so a loader can hand out views of it instead of decoding.
//
// Meta record layout (big-endian):
//
//	magic      uint16  0xC1A6 ("meta")
//	side       uint8
//	arity      uint8
//	functorLen uint16
//	numVars    uint16
//	numArgs    uint32  (words, taken from the shared section)
//	numHeap    uint32  (words, taken from the shared section)
//	functor    [functorLen]byte
//	varNames   numVars x {uint16 len, bytes}
//
// A record's size on the (simulated) disk is its meta record plus 4 bytes
// per word — RecordSize — which is what StoredClause.SizeBytes and every
// disk-time figure derived from it are built on.

const (
	metaMagic      = 0xC1A6
	metaHeaderSize = 2 + 1 + 1 + 2 + 2 + 4 + 4
)

// metaSize is len(MarshalBinaryMeta()) by arithmetic.
func (e *Encoded) metaSize() int {
	size := metaHeaderSize + len(e.Functor)
	for _, n := range e.VarNames {
		size += 2 + len(n)
	}
	return size
}

// RecordSize is the record's on-disk size: the meta record plus 4 bytes
// per Args/Heap word.
func (e *Encoded) RecordSize() int { return e.metaSize() + e.SizeBytes() }

// MarshalBinaryMeta serialises the record's metadata; the words are the
// caller's to lay into the shared section (Args first, then Heap, in
// record order — the order UnmarshalBinaryMeta consumes them).
func (e *Encoded) MarshalBinaryMeta() ([]byte, error) {
	if len(e.Functor) > 0xFFFF {
		return nil, fmt.Errorf("pif: functor too long (%d bytes)", len(e.Functor))
	}
	if e.Arity > 0xFF {
		return nil, fmt.Errorf("pif: arity %d exceeds record limit", e.Arity)
	}
	if e.NumVars > 0xFFFF {
		return nil, fmt.Errorf("pif: too many variables (%d)", e.NumVars)
	}
	buf := make([]byte, 0, e.metaSize())
	buf = binary.BigEndian.AppendUint16(buf, metaMagic)
	buf = append(buf, byte(e.Side), byte(e.Arity))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Functor)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.NumVars))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Args)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Heap)))
	buf = append(buf, e.Functor...)
	for _, n := range e.VarNames {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
	}
	return buf, nil
}

// UnmarshalBinaryMeta parses a meta record, taking its Args/Heap words
// from the shared word view in order. Every failure is an error, never a
// panic — truncated metadata, a short word section, or a foreign magic
// all fail closed.
func (e *Encoded) UnmarshalBinaryMeta(data []byte, wv *WordView) error {
	r := reader{data: data}
	if m := r.u16(); m != metaMagic {
		return fmt.Errorf("pif: bad meta record magic 0x%04x", m)
	}
	sideArity := r.bytes(2)
	funLen := int(r.u16())
	e.NumVars = int(r.u16())
	nArgs := int(r.u32())
	nHeap := int(r.u32())
	fun := r.bytes(funLen)
	if r.err != nil {
		return r.err
	}
	e.Side, e.Arity, e.Functor = Side(sideArity[0]), int(sideArity[1]), string(fun)
	e.VarNames = make([]string, e.NumVars)
	for i := range e.VarNames {
		e.VarNames[i] = string(r.bytes(int(r.u16())))
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(data) {
		return fmt.Errorf("pif: %d trailing bytes in meta record", len(data)-r.pos)
	}
	var err error
	if e.Args, err = wv.Take(nArgs); err != nil {
		return fmt.Errorf("pif: args: %w", err)
	}
	if e.Heap, err = wv.Take(nHeap); err != nil {
		return fmt.Errorf("pif: heap: %w", err)
	}
	return nil
}

// reader is a bounds-checked cursor over a meta record; the first
// out-of-range read latches err and every later read returns zero.
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
		r.err = fmt.Errorf("pif: truncated record at byte %d", r.pos)
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

// WordView hands out sequential views of a shared word section — the
// consuming counterpart of the store writer's word layout. The backing
// slice may be decoded words or a cast of the store image itself; either
// way views are full-cap sub-slices, so appends can never bleed into a
// neighbouring record.
type WordView struct {
	words []Word
	off   int
}

// NewWordView wraps a word section.
func NewWordView(words []Word) *WordView { return &WordView{words: words} }

// Take returns the next n words (nil for n == 0). Requests beyond the
// section fail closed.
func (v *WordView) Take(n int) ([]Word, error) {
	if n == 0 {
		return nil, nil
	}
	if n < 0 || n > len(v.words)-v.off {
		return nil, fmt.Errorf("pif: word section exhausted (want %d words, have %d)", n, len(v.words)-v.off)
	}
	w := v.words[v.off : v.off+n : v.off+n]
	v.off += n
	return w, nil
}

// Remaining reports the unconsumed words — a store-level integrity
// check: after decoding every record it must be zero.
func (v *WordView) Remaining() int { return len(v.words) - v.off }
