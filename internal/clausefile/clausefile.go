// Package clausefile implements the compiled clause files of the PDBM
// store: "predicates with the same functor names and arities are stored in
// a compiled clause file. For fast searching in large files, codewords are
// generated for facts and rule heads and these are maintained in a
// secondary file" (§2.1).
//
// Each stored clause carries two PIF encodings: the HEAD encoding — the
// argument stream FS2 walks during partial test unification — and the full
// CLAUSE encoding (head and body wrapped in one term so variable sharing
// survives), used to reconstruct the clause for full unification and
// resolution on the host. The secondary file is the SCW+MB index over the
// head encodings.
package clausefile

import (
	"cmp"
	"fmt"
	"slices"

	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/term"
)

// MaxRecordBytes is the largest clause record the system accepts: the FS2
// Result Memory gives each satisfier a 512-byte slot (its 9-bit offset
// counter, §3.2), so clause records must fit one slot. Enforced at compile
// time, as the PDBM compiler would.
const MaxRecordBytes = 512

// StoredClause is one record of a compiled clause file. Head and Clause
// are set once and never written again, and a record removed from its
// file is never reused, so a retrieval's candidates stay readable — and
// render the same — after the lock that excluded writes is gone. Addr and
// Seq are the file's to re-base (PredFile.Remove): read them only while
// writes are excluded.
type StoredClause struct {
	// Addr is the record's byte offset in the file — the address the
	// secondary index and the Result Memory traffic in.
	Addr uint32
	// Seq is the clause's user-order position.
	Seq int
	// Head is the head-argument PIF encoding (DB-side variable tags).
	Head *pif.Encoded
	// Clause is the ':-'(Head, Body) PIF encoding for reconstruction.
	Clause *pif.Encoded
	// SizeBytes is the record's on-disk size.
	SizeBytes int
}

// PredFile is the compiled clause file for one predicate. Append and
// Remove change it in place; everything else only reads. The caller keeps
// the two apart (the CRS holds the predicate's write lock across a
// write).
type PredFile struct {
	Module  string
	Functor string
	Arity   int
	Symbols *symtab.Table
	enc     pif.Encoder // Compile's, over Symbols
	dec     pif.Decoder // DecodeClause's, over Symbols

	clauses []*StoredClause
	index   *scw.Index
	size    int

	// The head stream: every clause's Head.Args copied back to back, so a
	// filter walking the whole predicate reads one contiguous run of words
	// instead of chasing StoredClause → Head → Args per clause. Clause i's
	// words are headWords[headOff[i]:headOff[i+1]] (offsets taken without
	// their top bit); headOff[i]'s top bit records that none of them is a
	// variable. Costs 4 B per head word plus 4 B per clause.
	headWords []pif.Word
	headOff   []uint32
}

// headGround is the variable-free flag carried in a head-stream offset.
const headGround = 1 << 31

// newPredFile is an empty file over syms whose secondary file is index.
func newPredFile(module, functor string, arity int, syms *symtab.Table, index *scw.Index) *PredFile {
	return &PredFile{
		Module:  module,
		Functor: functor,
		Arity:   arity,
		Symbols: syms,
		enc:     pif.Encoder{Symbols: syms},
		dec:     pif.Decoder{Symbols: syms},
		index:   index,
	}
}

// Builder accumulates clauses for one predicate.
type Builder struct {
	file *PredFile
}

// NewBuilder starts a compiled clause file for module:functor/arity using
// the shared symbol table and SCW parameters.
func NewBuilder(module, functor string, arity int, syms *symtab.Table, params scw.Params) (*Builder, error) {
	ienc, err := scw.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	return &Builder{file: newPredFile(module, functor, arity, syms, scw.NewIndex(ienc))}, nil
}

// Add appends one clause (body term.Atom("true") for facts) in user order.
func (b *Builder) Add(head, body term.Term) error {
	c, err := b.file.Compile(head, body)
	if err != nil {
		return err
	}
	b.file.Append(c)
	return nil
}

// Compiled is one clause compiled for a predicate file: everything a
// record holds except its place in the file.
type Compiled struct {
	head, clause *pif.Encoded
	entry        scw.Entry // Addr unset
	size         int
	rule         bool
}

// Masked reports whether the clause's index entry masks an argument (a
// head with a variable in it).
func (c Compiled) Masked() bool { return c.entry.Mask != 0 }

// Rule reports whether the clause has a body other than true.
func (c Compiled) Rule() bool { return c.rule }

// Compile compiles one clause of f's predicate (body term.Atom("true")
// for a fact) — both PIF encodings, the codeword entry, the record-size
// check — without changing f, so a caller can refuse a clause before it
// commits to storing it. Everything that can be wrong with a clause is
// wrong here: Append cannot fail.
func (f *PredFile) Compile(head, body term.Term) (Compiled, error) {
	pi, args, ok := principal(head)
	if !ok {
		return Compiled{}, fmt.Errorf("clausefile: %v is not a callable head", head)
	}
	if pi != f.Functor || len(args) != f.Arity {
		return Compiled{}, fmt.Errorf("clausefile: head %v does not belong to %s/%d", head, f.Functor, f.Arity)
	}
	headEnc, err := f.enc.Encode(head, pif.DBSide)
	if err != nil {
		return Compiled{}, fmt.Errorf("clausefile: encoding head %v: %w", head, err)
	}
	clauseEnc, err := f.enc.Encode(term.New(pif.ClauseFunctor, head, body), pif.DBSide)
	if err != nil {
		return Compiled{}, fmt.Errorf("clausefile: encoding clause for %v: %w", head, err)
	}
	recSize := recordSize(headEnc, clauseEnc)
	if recSize > MaxRecordBytes {
		return Compiled{}, fmt.Errorf("clausefile: clause %v compiles to %d bytes, exceeding the %d-byte result-memory slot",
			head, recSize, MaxRecordBytes)
	}
	ent, err := f.index.Encoder().EncodeClause(head, 0)
	if err != nil {
		return Compiled{}, err
	}
	rule := !term.Equal(body, term.Atom("true"))
	return Compiled{head: headEnc, clause: clauseEnc, entry: ent, size: recSize, rule: rule}, nil
}

// recordSize is a clause record as it sits on disk: two length prefixes
// plus both PIF records.
func recordSize(head, clause *pif.Encoded) int {
	return recordFraming + head.RecordSize() + clause.RecordSize()
}

// Append adds a clause compiled by f.Compile as the file's last: record,
// index entry and head-stream words.
func (f *PredFile) Append(c Compiled) {
	ent := c.entry
	ent.Addr = uint32(f.size)
	f.index.Append(ent)
	f.append(new(StoredClause), c.head, c.clause, c.size)
}

// Remove drops clause i — its record, its index entry and its head-stream
// words — and re-bases what follows (record and entry addresses, user
// positions, stream offsets), leaving the file a fresh build over the
// remaining clauses would give: MarshalBinary cannot tell the two apart.
// The removed record itself is left as it was for whoever still holds it.
func (f *PredFile) Remove(i int) {
	size := f.clauses[i].SizeBytes
	f.clauses = slices.Delete(f.clauses, i, i+1)
	for _, sc := range f.clauses[i:] {
		sc.Addr -= uint32(size)
		sc.Seq--
	}
	f.size -= size
	f.index.Remove(i, uint32(size))

	lo, hi := f.headOff[i]&^headGround, f.headOff[i+1]&^headGround
	f.headWords = slices.Delete(f.headWords, int(lo), int(hi))
	f.headOff = slices.Delete(f.headOff, i, i+1)
	for j := i; j < len(f.headOff); j++ {
		f.headOff[j] -= hi - lo // the ground flag in the top bit is untouched
	}
}

// append fills sc in as the record of recSize bytes at the end of the file
// and adds its head words at the end of the head stream.
func (f *PredFile) append(sc *StoredClause, head, clause *pif.Encoded, recSize int) {
	*sc = StoredClause{Addr: uint32(f.size), Seq: len(f.clauses), Head: head, Clause: clause, SizeBytes: recSize}
	f.clauses = append(f.clauses, sc)
	f.size += recSize

	if f.headOff == nil {
		f.headOff = []uint32{0}
	}
	if pif.VariableFree(head.Args) {
		f.headOff[len(f.headOff)-1] |= headGround
	}
	f.headWords = append(f.headWords, head.Args...)
	f.headOff = append(f.headOff, uint32(len(f.headWords)))
}

// Build finalises the file.
func (b *Builder) Build() *PredFile { return b.file }

func principal(t term.Term) (string, []term.Term, bool) {
	switch t := term.Deref(t).(type) {
	case term.Atom:
		return string(t), nil, true
	case *term.Compound:
		return t.Functor, t.Args, true
	}
	return "", nil, false
}

// Len is the clause count.
func (f *PredFile) Len() int { return len(f.clauses) }

// SizeBytes is the compiled clause file size.
func (f *PredFile) SizeBytes() int { return f.size }

// IndexSizeBytes is the secondary file size — "generally much smaller"
// than the clause file (§2.1).
func (f *PredFile) IndexSizeBytes() int { return f.index.SizeBytes() }

// Index exposes the secondary file.
func (f *PredFile) Index() *scw.Index { return f.index }

// All returns every stored clause in user order: the file's own slice,
// which a write shifts in place — copy what must outlive the exclusion.
func (f *PredFile) All() []*StoredClause { return f.clauses }

// HeadArgs returns clause i's head-argument words (equal to
// All()[i].Head.Args) from the head stream, and whether none of them is a
// variable word.
func (f *PredFile) HeadArgs(i int) (args []pif.Word, ground bool) {
	lo, hi := f.headOff[i], f.headOff[i+1]
	return f.headWords[lo&^headGround : hi&^headGround], lo&headGround != 0
}

// ByAddrs returns the stored clauses at the given addresses, preserving
// the given (clause) order. Unknown addresses are errors — the index never
// fabricates them. Record addresses increase in user order, so each is a
// binary search of the clause list.
func (f *PredFile) ByAddrs(addrs []uint32) ([]*StoredClause, error) {
	out := make([]*StoredClause, 0, len(addrs))
	for _, a := range addrs {
		i, ok := slices.BinarySearchFunc(f.clauses, a, func(sc *StoredClause, a uint32) int {
			return cmp.Compare(sc.Addr, a)
		})
		if !ok {
			return nil, fmt.Errorf("clausefile: no clause at address %d", a)
		}
		out = append(out, f.clauses[i])
	}
	return out, nil
}

// DecodeClause reconstructs the head and body terms of a stored clause,
// with head/body variable sharing intact.
func (f *PredFile) DecodeClause(sc *StoredClause) (head, body term.Term, err error) {
	whole, err := f.dec.Decode(sc.Clause)
	if err != nil {
		return nil, nil, err
	}
	c, ok := whole.(*term.Compound)
	if !ok || c.Functor != pif.ClauseFunctor || len(c.Args) != 2 {
		return nil, nil, fmt.Errorf("clausefile: a record of %s/%d is not a clause", f.Functor, f.Arity)
	}
	return c.Args[0], c.Args[1], nil
}

// AppendClause appends a stored clause's source form — "Head." or
// "Head :- Body." — to dst, rendered from its words (pif.AppendClause):
// what printing DecodeClause's terms gives, without building them.
func (f *PredFile) AppendClause(dst []byte, sc *StoredClause) ([]byte, error) {
	return pif.AppendClause(dst, f.Symbols, sc.Clause)
}
