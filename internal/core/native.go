// Native execution engine: the hardware-filter search modes (b)/(c)/(d)
// re-implemented as tight host code behind the same Retrieve interface.
// The simulated engine (sim.go) walks the cycle-accurate hardware
// protocol — VME register traffic, the Double Buffer, per-operation FS2
// cycle counts — and is the repository's ground truth. Mode (a), software
// only, is defined by the host reference matcher (package ptu) and is
// shared between engines. The native engine runs the filter algorithms
// the way a CPU wants to run them:
//
//   - FS1 scans sweep the columnar secondary-file view (scw.Columnar):
//     one 64-bit AND/compare per entry against the union of the query's
//     argument codewords, instead of a per-entry per-argument loop.
//   - FS2 filtering compiles the query once (fs2.NativeMatcher.SetQuery)
//     and runs the step program over the predicate's contiguous head-word
//     stream (clausefile.PredFile.HeadArgs); heads carrying variables go
//     through the generic matcher on their stored record. Zero
//     allocations per clause either way.
//   - Candidate clauses are reached by index position (entry j is clause
//     j), skipping the address-map lookup.
//
// Results are bit-identical to the simulated engine: same candidates in
// the same order, same AfterFS1/MaskedHits/reject-split statistics —
// the contract native_test.go enforces differentially.
//
// The engine owns no simulated hardware, not even a drive. A retrieval
// leases nothing: it reads the compiled files (shared, and immutable
// while the caller holds the predicate's read lock), works in an arena it
// owns for its duration and writes counts and the stage clock, so any
// number of retrievals run in parallel. Its simulated-time fields stay
// zero; EXPLAIN prices it by replaying it on a private sim board unit
// (Retriever.replay). The only fault site it probes is the retriever's
// own, core.retrieve. See DESIGN.md §6, §8 and §11.
package core

import (
	"clare/internal/clausefile"
	"clare/internal/fs2"
	"clare/internal/scw"
	"clare/internal/term"
)

// nativeArena is the per-retrieval scratch state of the native engine:
// the scan buffer and an FS2 matcher with embedded variable stores.
// Arenas are recycled through Retriever.natPool, so steady-state
// retrievals allocate nothing on the scan or match paths.
type nativeArena struct {
	buf scw.ScanBuf
	nm  *fs2.NativeMatcher
}

// arena leases an arena from natPool, which builds one when it has none.
func (r *Retriever) arena() *nativeArena { return r.natPool.Get().(*nativeArena) }

// newArena builds an arena for natPool. It fails on a microprogram the
// native matcher lacks (NewWithSymbols builds the first arena to find
// that out).
func (r *Retriever) newArena() (*nativeArena, error) {
	nm, err := fs2.NewNativeMatcher(r.cfg.Microprogram)
	if err != nil {
		return nil, err
	}
	return &nativeArena{nm: nm}, nil
}

// searchNative runs one attempt of a retrieval on the native engine, in
// an arena it owns until it returns. Mode (a) is defined by the host
// reference matcher and shared between engines; the native engine
// accelerates the filter modes.
func (r *Retriever) searchNative(mode SearchMode, goal term.Term, pred *Predicate, rt *Retrieval) error {
	a := r.arena()
	r.met.boardsBusy.Add(1)
	var err error
	switch mode {
	case ModeSoftware:
		err = r.retrieveSoftware(goal, pred, rt, nil)
	case ModeFS1:
		err = r.retrieveFS1Native(goal, pred, rt, a)
	case ModeFS2:
		err = r.retrieveFS2AllNative(goal, pred, rt, a)
	case ModeFS1FS2:
		err = r.retrieveFS1FS2Native(goal, pred, rt, a)
	}
	r.met.boardsBusy.Add(-1)
	r.natPool.Put(a)
	return err
}

// retrieveFS1Native is mode (b) on the native engine: one serial columnar
// sweep of the secondary file, then a position-indexed gather of the
// surviving clause records. Concurrent retrievals are the engine's
// parallelism; a partitioned sweep measured slower than this one
// (DESIGN.md §11).
func (r *Retriever) retrieveFS1Native(goal term.Term, pred *Predicate, rt *Retrieval, a *nativeArena) error {
	qd, _, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	buf := &a.buf
	pred.File.Index().Columnar().ScanInto(qd, buf)
	rt.Stats.IndexBytes = buf.BytesScanned
	rt.Stats.AfterFS1 = len(buf.Pos)
	rt.Stats.MaskedHits = buf.MaskedHits
	rt.wall.lap(stageFS1Scan)

	all := pred.File.All()
	rt.Candidates = make([]*clausefile.StoredClause, 0, len(buf.Pos))
	for _, p := range buf.Pos {
		rt.Stats.ClauseBytes += all[p].SizeBytes
		rt.Candidates = append(rt.Candidates, all[p])
	}
	rt.wall.lap(stageDiskFetch)
	return nil
}

// retrieveFS2AllNative is mode (c) on the native engine: the whole clause
// file filtered through the native matcher. The heads are resident (views
// of the store image plus the head stream), so "streaming" is a walk over
// memory.
func (r *Retriever) retrieveFS2AllNative(goal term.Term, pred *Predicate, rt *Retrieval, a *nativeArena) error {
	rt.Stats.AfterFS1 = pred.File.Len()
	rt.Stats.ClauseBytes = pred.File.SizeBytes()
	_, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	if err := a.nm.SetQuery(q); err != nil {
		return err
	}
	nativeFilter(a.nm, pred.File, pred.File.Len(), nil, rt)
	rt.wall.lap(stageFS2Match)
	return nil
}

// retrieveFS1FS2Native is mode (d) on the native engine: one serial
// columnar sweep of the whole index and one pass of the survivors through
// the native matcher. The sim engine's chunked pipeline is a ledger, not
// work: EXPLAIN derives it from where the survivors lie.
func (r *Retriever) retrieveFS1FS2Native(goal term.Term, pred *Predicate, rt *Retrieval, a *nativeArena) error {
	qd, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	ix := pred.File.Index()
	n := ix.Len()
	if n == 0 {
		return nil
	}
	if err := a.nm.SetQuery(q); err != nil {
		return err
	}
	rt.wall.lap(stageFS2Match)
	buf := &a.buf
	ix.Columnar().ScanRangeInto(qd, 0, n, buf)
	rt.Stats.IndexBytes = buf.BytesScanned
	rt.Stats.AfterFS1 = len(buf.Pos)
	rt.Stats.MaskedHits = buf.MaskedHits
	rt.wall.lap(stageFS1Scan)

	nativeFilter(a.nm, pred.File, len(buf.Pos), buf.Pos, rt)
	rt.wall.lap(stageFS2Match)
	return nil
}

// nativeFilter passes n clauses of f through the native matcher — the
// first n in file order when pos is nil (mode fs2 walks the whole file),
// else the FS1 survivors at index positions pos[:n] (mode fs1+fs2) —
// appending the satisfiers to rt.Candidates and splitting rejects into
// the level/cross-binding counters. It is the native engine's counterpart
// of searchFS2, with no batching (there is no Result Memory to overflow).
// Variable-free heads are matched on the head stream by the compiled
// query, the predicate tested once up front; the rest on their stored
// record.
func nativeFilter(nm *fs2.NativeMatcher, f *clausefile.PredFile, n int, pos []uint32, rt *Retrieval) {
	all := f.All()
	compiled := nm.CompiledFor(f.Functor, f.Arity)
	for k := 0; k < n; k++ {
		i := k
		if pos != nil {
			i = int(pos[k])
		}
		var ok bool
		if args, ground := f.HeadArgs(i); ground && compiled {
			ok = nm.MatchArgs(args)
		} else {
			ok = nm.Match(all[i].Head)
		}
		switch {
		case ok:
			rt.Candidates = append(rt.Candidates, all[i])
		case nm.LastRejectXB():
			rt.Stats.FS2RejectsXB++
		default:
			rt.Stats.FS2RejectsLevel++
		}
	}
}
