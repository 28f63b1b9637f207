package scw

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"clare/internal/term"
)

// ScanRate is the prototype FS1 hardware's search rate: "It can search
// data at a rate of up to 4.5Mbyte/sec" (§4).
const ScanRate = 4.5e6 // bytes per second

// ScanTime converts bytes scanned into simulated FS1 time at ScanRate.
func ScanTime(bytes int) time.Duration {
	return time.Duration(float64(bytes) / ScanRate * float64(time.Second))
}

// Index is the secondary file for one predicate: codeword entries in
// clause (user) order. "The secondary file is effectively an index table
// associating codewords with clause addresses" (§2.1).
type Index struct {
	enc     *Encoder
	entries []Entry
	// col is the columnar view the native engine scans: built by the first
	// Columnar call, kept in step by Append and Remove from then on. It is
	// atomic only because concurrent scans may race to build it; writes
	// need the exclusion documented on Append.
	col atomic.Pointer[Columnar]
}

// NewIndex returns an empty index using enc's parameters.
func NewIndex(enc *Encoder) *Index { return &Index{enc: enc} }

// Encoder returns the encoder the index's entries were built with.
func (ix *Index) Encoder() *Encoder { return ix.enc }

// Add encodes head and appends its entry with the given clause address.
func (ix *Index) Add(head term.Term, addr uint32) error {
	ent, err := ix.enc.EncodeClause(head, addr)
	if err != nil {
		return err
	}
	ix.Append(ent)
	return nil
}

// Append adds ent at the end of the file. Like Remove it writes the
// entries and the columnar view in place: the caller keeps scans of this
// index out for the duration.
func (ix *Index) Append(ent Entry) {
	ix.entries = append(ix.entries, ent)
	if c := ix.col.Load(); c != nil {
		c.append(ent)
	}
}

// Remove drops entry i, the entry of a clause record of size bytes, and
// moves the addresses of the entries after it down by size — the file a
// fresh build over the remaining clauses gives.
func (ix *Index) Remove(i int, size uint32) {
	ix.entries = slices.Delete(ix.entries, i, i+1)
	for j := i; j < len(ix.entries); j++ {
		ix.entries[j].Addr -= size
	}
	if c := ix.col.Load(); c != nil {
		c.remove(i, size)
	}
}

// Len returns the number of entries.
func (ix *Index) Len() int { return len(ix.entries) }

// SizeBytes is the secondary file's size — "generally much smaller than
// that of a compiled clause file" (§2.1).
func (ix *Index) SizeBytes() int { return len(ix.entries) * EntrySize }

// Entries exposes the raw entries (for diagnostics and tests).
func (ix *Index) Entries() []Entry { return ix.entries }

// ScanResult reports one FS1 scan.
type ScanResult struct {
	// Addrs are the clause addresses of matching entries, in clause
	// (user) order.
	Addrs []uint32
	// EntriesScanned is the number of index entries examined (always the
	// whole file: FS1 scans on the fly).
	EntriesScanned int
	// BytesScanned is the secondary-file bytes streamed through FS1.
	BytesScanned int
	// MaskedHits counts survivors whose entry carries mask bits — clause
	// heads with variable arguments, which weaken the codeword (§2.1) and
	// are the structural source of FS1 ghosts alongside hash collisions.
	// EXPLAIN reports it so a high ghost ratio can be attributed.
	MaskedHits int
	// Elapsed is the simulated scan time at the 4.5 MB/s hardware rate.
	Elapsed time.Duration
}

// Scan streams the whole secondary file through the matcher and collects
// the addresses of the survivors.
func (ix *Index) Scan(qd QueryDescriptor) ScanResult {
	return ix.ScanRange(qd, 0, len(ix.entries))
}

// ScanRange streams entries [lo, hi) through the matcher — the chunked
// form of Scan for pipelined retrieval, where FS1 delivers survivors one
// chunk at a time while downstream stages work on earlier chunks. Bounds
// are clamped to the file.
func (ix *Index) ScanRange(qd QueryDescriptor, lo, hi int) ScanResult {
	if lo < 0 {
		lo = 0
	}
	if hi > len(ix.entries) {
		hi = len(ix.entries)
	}
	if lo > hi {
		lo = hi
	}
	res := ScanResult{
		EntriesScanned: hi - lo,
		BytesScanned:   (hi - lo) * EntrySize,
	}
	if n := hi - lo; n > 0 {
		// Pre-size the survivor list so high-hit scans don't regrow it:
		// an unconstrained query retrieves everything, anything else is
		// sized for a typical selective scan and regrows at most a few
		// times.
		est := n
		if !qd.Unconstrained() {
			est = n/8 + 8
			if est > n {
				est = n
			}
		}
		res.Addrs = make([]uint32, 0, est)
	}
	for _, ent := range ix.entries[lo:hi] {
		if ix.enc.Matches(ent, qd) {
			res.Addrs = append(res.Addrs, ent.Addr)
			if ent.Mask != 0 {
				res.MaskedHits++
			}
		}
	}
	res.Elapsed = ScanTime(res.BytesScanned)
	return res
}

// Columnar returns the struct-of-arrays view of the index for the native
// engine, building it on first use. Append and Remove keep a built view
// in step, so a write never costs the next scan a rebuild.
func (ix *Index) Columnar() *Columnar {
	if c := ix.col.Load(); c != nil {
		return c
	}
	c := NewColumnar(ix.enc.Params(), ix.entries)
	ix.col.Store(c)
	return c
}

// indexMagic marks a serialised index file.
const indexMagic = 0x5C37

// MarshalBinary serialises the index: magic, params, count, entries.
func (ix *Index) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 12+len(ix.entries)*EntrySize)
	var tmp [4]byte
	binary.BigEndian.PutUint16(tmp[:2], indexMagic)
	buf = append(buf, tmp[:2]...)
	p := ix.enc.Params()
	buf = append(buf, byte(p.Width), byte(p.BitsPerKey), boolByte(p.MaskBits), 0)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(ix.entries)))
	buf = append(buf, tmp[:4]...)
	for _, ent := range ix.entries {
		buf = append(buf, ent.MarshalBinary()...)
	}
	return buf, nil
}

// UnmarshalIndex parses a serialised index, reconstructing its encoder.
func UnmarshalIndex(data []byte) (*Index, error) {
	if len(data) < 10 {
		return nil, fmt.Errorf("scw: index file too short")
	}
	if binary.BigEndian.Uint16(data[0:2]) != indexMagic {
		return nil, fmt.Errorf("scw: bad index magic")
	}
	p := Params{Width: int(data[2]), BitsPerKey: int(data[3]), MaskBits: data[4] != 0}
	enc, err := NewEncoder(p)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(data[6:10]))
	want := 10 + n*EntrySize
	if len(data) != want {
		return nil, fmt.Errorf("scw: index file size %d, want %d for %d entries", len(data), want, n)
	}
	ix := NewIndex(enc)
	ix.entries = make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		ent, err := UnmarshalEntry(data[10+i*EntrySize:])
		if err != nil {
			return nil, err
		}
		ix.entries = append(ix.entries, ent)
	}
	return ix, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
