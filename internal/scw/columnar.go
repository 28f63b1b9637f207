package scw

import "slices"

// Columnar is the native engine's struct-of-arrays view of a secondary
// file: codewords, mask fields and clause addresses in three parallel
// arrays, grouped in 64-entry blocks. The layout trades the 14-byte
// row records the simulated hardware streams for cache-line-friendly
// columns a CPU can sweep with one AND/compare per entry.
//
// The match itself exploits that per-argument subset tests compose by
// union: for every encoded argument i the SCW+MB test demands
// q_i & code == q_i, and since all q_i are tested against the same
// codeword, ∀i: q_i ⊆ code  ⟺  (⋃ q_i) ⊆ code. A whole entry therefore
// matches iff code covers the union of the query's unmasked argument
// codewords — one 64-bit AND and compare, no per-argument loop. Mask
// bits only change which arguments join the union, so blocks whose
// entries carry no mask bits (the common case: ground facts) take a
// branch-free fast path against a single precomputed union; blocks with
// masked entries fall back to a per-entry union with a one-entry memo.
//
// Columnar scans are bit-for-bit equivalent to Index.ScanRange — same
// survivors, same order, same MaskedHits — which the differential and
// fuzz tests in columnar_test.go enforce against the per-entry
// reference matcher.
type Columnar struct {
	p     Params
	codes []uint64
	masks []uint16
	addrs []uint32
	// blockOr[b] is the OR of the mask fields of entries
	// [b*colBlock, (b+1)*colBlock): zero means the whole block can use
	// the precomputed query union.
	blockOr []uint16
}

// colBlock is the block granularity of the mask summaries: 64 entries =
// 512 bytes of codewords, a whole number of cache lines.
const colBlock = 64

// NewColumnar builds the columnar layout for a slice of index entries.
func NewColumnar(p Params, entries []Entry) *Columnar {
	n := len(entries)
	c := &Columnar{
		p:       p,
		codes:   make([]uint64, 0, n),
		masks:   make([]uint16, 0, n),
		addrs:   make([]uint32, 0, n),
		blockOr: make([]uint16, 0, (n+colBlock-1)/colBlock),
	}
	for _, ent := range entries {
		c.append(ent)
	}
	return c
}

// append adds ent as the last entry (Index.Append).
func (c *Columnar) append(ent Entry) {
	if len(c.codes)%colBlock == 0 {
		c.blockOr = append(c.blockOr, 0)
	}
	c.blockOr[len(c.codes)/colBlock] |= uint16(ent.Mask)
	c.codes = append(c.codes, uint64(ent.Code))
	c.masks = append(c.masks, uint16(ent.Mask))
	c.addrs = append(c.addrs, ent.Addr)
}

// remove drops entry i and moves the later addresses down by size
// (Index.Remove). Every entry after i changes block, so the mask
// summaries from i's block on are recomputed.
func (c *Columnar) remove(i int, size uint32) {
	c.codes = slices.Delete(c.codes, i, i+1)
	c.masks = slices.Delete(c.masks, i, i+1)
	c.addrs = slices.Delete(c.addrs, i, i+1)
	for j := i; j < len(c.addrs); j++ {
		c.addrs[j] -= size
	}
	c.blockOr = c.blockOr[:(len(c.codes)+colBlock-1)/colBlock]
	for b := i / colBlock; b < len(c.blockOr); b++ {
		var or uint16
		for _, m := range c.masks[b*colBlock : min((b+1)*colBlock, len(c.masks))] {
			or |= m
		}
		c.blockOr[b] = or
	}
}

// Len returns the number of entries.
func (c *Columnar) Len() int { return len(c.codes) }

// Addr returns the clause address of the entry at position pos.
func (c *Columnar) Addr(pos uint32) uint32 { return c.addrs[pos] }

// AppendAddrs appends the clause addresses of the given entry positions
// to dst and returns it.
func (c *Columnar) AppendAddrs(dst []uint32, pos []uint32) []uint32 {
	for _, p := range pos {
		dst = append(dst, c.addrs[p])
	}
	return dst
}

// ScanBuf is a reusable survivor buffer for columnar scans. A zero
// ScanBuf is ready to use; reusing one across scans amortises the
// survivor array to a single allocation (ScanRangeInto is allocation-free
// once Pos has grown to the largest range scanned).
type ScanBuf struct {
	// Pos holds the entry positions (indices into the index, not clause
	// addresses) of the survivors, in entry order. Entry position j
	// corresponds to the predicate's j-th clause, which lets callers
	// reach clauses without an address lookup.
	Pos []uint32
	// MaskedHits counts survivors whose entry carries mask bits,
	// mirroring ScanResult.MaskedHits.
	MaskedHits int
	// EntriesScanned and BytesScanned mirror the ScanResult fields.
	EntriesScanned int
	BytesScanned   int

	// reqTab memoises the per-mask required union for the current scan:
	// reqTab[m] is valid iff reqStamp[m] == stamp. Only mask bits below
	// MaxEncodedArgs influence the union, so the table is indexed by the
	// low 12 mask bits and stays at 48 KiB. Stamping makes reuse free —
	// no table clearing between scans.
	reqTab   []uint64
	reqStamp []uint32
	stamp    uint32
}

// reqTabSize covers every mask value that can influence a match: only
// bits below MaxEncodedArgs are consulted.
const reqTabSize = 1 << MaxEncodedArgs

// Reset clears the buffer while keeping its capacity.
func (b *ScanBuf) Reset() {
	b.Pos = b.Pos[:0]
	b.MaskedHits = 0
	b.EntriesScanned = 0
	b.BytesScanned = 0
}

// nextStamp starts a new memo epoch.
func (b *ScanBuf) nextStamp() {
	b.stamp++
	if b.stamp == 0 { // wrapped: invalidate everything once
		clear(b.reqStamp)
		b.stamp = 1
	}
}

// reqFor returns the required union for one masked entry, memoised per
// scan epoch.
func (b *ScanBuf) reqFor(qd QueryDescriptor, mask uint16) uint64 {
	if b.reqTab == nil {
		b.reqTab = make([]uint64, reqTabSize)
		b.reqStamp = make([]uint32, reqTabSize)
		b.stamp = 1
	}
	key := mask & (reqTabSize - 1)
	if b.reqStamp[key] != b.stamp {
		b.reqTab[key] = maskedUnion(qd, mask)
		b.reqStamp[key] = b.stamp
	}
	return b.reqTab[key]
}

// queryUnion returns the OR of the query's encoded argument codewords —
// the required bits when no mask bit cancels any argument.
func queryUnion(qd QueryDescriptor) uint64 {
	n := qd.NArgs
	if n > MaxEncodedArgs {
		n = MaxEncodedArgs
	}
	var u uint64
	for i := 0; i < n; i++ {
		u |= uint64(qd.PerArg[i])
	}
	return u
}

// maskedUnion returns the OR of the query argument codewords whose mask
// bit is clear — the required bits for one masked entry.
func maskedUnion(qd QueryDescriptor, mask uint16) uint64 {
	n := qd.NArgs
	if n > MaxEncodedArgs {
		n = MaxEncodedArgs
	}
	var u uint64
	for i := 0; i < n; i++ {
		if mask&(1<<i) == 0 {
			u |= uint64(qd.PerArg[i])
		}
	}
	return u
}

// ScanRangeInto scans entries [lo, hi) (clamped to the file) and fills
// buf with the survivors. It overwrites buf's previous contents.
func (c *Columnar) ScanRangeInto(qd QueryDescriptor, lo, hi int, buf *ScanBuf) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.codes) {
		hi = len(c.codes)
	}
	if lo > hi {
		lo = hi
	}
	buf.Reset()
	buf.nextStamp()
	buf.EntriesScanned = hi - lo
	buf.BytesScanned = (hi - lo) * EntrySize
	if lo == hi {
		return
	}
	if cap(buf.Pos) < hi-lo {
		buf.Pos = make([]uint32, 0, hi-lo)
	}
	// pos is over-sized so the fast path can store unconditionally and
	// advance the count with a branch-free conditional increment.
	pos := buf.Pos[:hi-lo]
	cnt := 0
	req0 := queryUnion(qd)
	j := lo
	for j < hi {
		blk := j / colBlock
		end := (blk + 1) * colBlock
		if end > hi {
			end = hi
		}
		if c.blockOr[blk] == 0 {
			// Unmasked block: one AND/compare per entry, survivor
			// collection without a data-dependent branch.
			codes := c.codes[j:end]
			base := uint32(j)
			for k, code := range codes {
				pos[cnt] = base + uint32(k)
				if code&req0 == req0 {
					cnt++
				}
			}
			j = end
			continue
		}
		// Masked block: per-entry union, memoised per mask value in the
		// buffer's stamped table, so each distinct mask pays the union
		// loop once per scan.
		for ; j < end; j++ {
			mask := c.masks[j]
			req := req0
			if c.p.MaskBits && mask != 0 {
				req = buf.reqFor(qd, mask)
			}
			if c.codes[j]&req == req {
				pos[cnt] = uint32(j)
				cnt++
				if mask != 0 {
					buf.MaskedHits++
				}
			}
		}
	}
	buf.Pos = pos[:cnt]
}

// ScanInto scans the whole file into buf.
func (c *Columnar) ScanInto(qd QueryDescriptor, buf *ScanBuf) {
	c.ScanRangeInto(qd, 0, len(c.codes), buf)
}
