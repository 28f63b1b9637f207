// Native execution engine: the hardware-filter search modes (b)/(c)/(d)
// re-implemented as tight host code behind the same Retrieve interface.
// The simulated engine (core.go) walks the cycle-accurate hardware
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
//     j), skipping the address-map lookup, and fetch accounting uses the
//     exact run size (disk.FetchRun) instead of a truncated average.
//
// Results are bit-identical to the simulated engine: same candidates in
// the same order, same AfterFS1/MaskedHits/reject-split statistics —
// the contract native_test.go enforces differentially. The simulated-time
// ledger differs in one documented way: FS2 match time is zero (the
// native engine has no cycle model; wall-clock is its first-class clock),
// so Stats.Total in FS2-bearing modes reflects a stream whose matching is
// free. Drive accounting and drive fault sites are preserved — the
// disk-degradation ladder (unreadable index → FS2-only, read fault →
// retry → host) behaves identically — but the board and bus protocol
// sites are bypassed along with the protocol itself. See DESIGN.md §11.
package core

import (
	"fmt"
	"time"

	"clare/internal/clausefile"
	"clare/internal/fs2"
	"clare/internal/scw"
	"clare/internal/term"
)

// nativeArena is the per-retrieval scratch state of the native engine:
// the partitioned scan buffer (merged survivors + one ScanBuf and task
// slot per worker partition) and an FS2 matcher with embedded variable
// stores. Arenas are recycled through Retriever.natPool, so steady-state
// retrievals allocate nothing on the scan or match paths — at any worker
// count, since the per-partition buffers live in the arena too.
type nativeArena struct {
	pbuf scw.ParScanBuf
	nm   *fs2.NativeMatcher
}

// arena leases a native arena from the pool, building one on first use.
func (r *Retriever) arena() *nativeArena {
	if a, ok := r.natPool.Get().(*nativeArena); ok {
		return a
	}
	nm, err := fs2.NewNativeMatcher(r.cfg.Microprogram)
	if err != nil {
		// NewWithSymbols validated the microprogram for native mode.
		panic(fmt.Sprintf("core: native arena: %v", err))
	}
	return &nativeArena{nm: nm}
}

// retrieveFS1Native is mode (b) on the native engine: a partitioned
// columnar sweep of the secondary file (up to ScanWorkers goroutines,
// survivors merged in partition order — bit-identical to a serial scan),
// then a position-indexed gather of the surviving clause records with
// exact-size fetch accounting.
func (r *Retriever) retrieveFS1Native(goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	qd, _, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	a := r.arena()
	defer r.natPool.Put(a)

	pred.File.Index().Columnar().ParScanInto(qd, r.ScanWorkers(), r.scanPool, &a.pbuf)
	buf := &a.pbuf.Out
	rt.Stats.IndexBytes = buf.BytesScanned
	diskIndex, err := u.drive.IndexScan(buf.BytesScanned)
	if err != nil {
		return err
	}
	// Same delivery model as the sim path: FS1 outruns the disk.
	fs1Time := scw.ScanTime(buf.BytesScanned)
	if diskIndex > fs1Time {
		fs1Time = diskIndex
	}
	rt.Stats.FS1Scan = fs1Time
	rt.Stats.AfterFS1 = len(buf.Pos)
	rt.Stats.MaskedHits = buf.MaskedHits
	rt.wall.lap(stageFS1Scan)

	all := pred.File.All()
	candidates := make([]*clausefile.StoredClause, 0, len(buf.Pos))
	fetchBytes := 0
	for _, p := range buf.Pos {
		sc := all[p]
		fetchBytes += sc.SizeBytes
		candidates = append(candidates, sc)
	}
	rt.Stats.ClauseBytes = fetchBytes
	if rt.Stats.DiskFetch, err = u.drive.FetchRun(len(candidates), fetchBytes); err != nil {
		return err
	}
	rt.Candidates = candidates
	rt.wall.lap(stageDiskFetch)
	rt.Stats.Total = rt.Stats.FS1Scan + rt.Stats.DiskFetch
	return nil
}

// retrieveFS2AllNative is mode (c) on the native engine: the whole clause
// file filtered through the native matcher. The heads are resident (views
// of the store image plus the head stream), so "streaming" is a walk over
// memory; the drive model still accounts (and can fault) the underlying
// sequential scan. FS2 match time is zero in the simulated ledger —
// Stats.Total is the stream with free matching.
func (r *Retriever) retrieveFS2AllNative(goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	rt.Stats.AfterFS1 = pred.File.Len()
	rt.Stats.ClauseBytes = pred.File.SizeBytes()
	diskTime, err := u.drive.Scan(pred.File.SizeBytes())
	if err != nil {
		return err
	}
	rt.wall.lap(stageDiskFetch)
	_, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	a := r.arena()
	defer r.natPool.Put(a)
	if err := a.nm.SetQuery(q); err != nil {
		return err
	}
	nativeFilter(a.nm, pred.File, pred.File.Len(), nil, rt)
	rt.wall.lap(stageFS2Match)
	rt.Stats.DiskFetch = diskTime
	rt.Stats.Total = diskTime
	return nil
}

// retrieveFS1FS2Native is mode (d) on the native engine, keeping the sim
// path's chunked pipeline shape (and its chunked index-stream accounting)
// with the columnar scan and native matcher doing the work per chunk. In
// the simulated pipeline the per-chunk match side is free, so the slower
// side of each downstream step is always the fetch.
func (r *Retriever) retrieveFS1FS2Native(goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	qd, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	ix := pred.File.Index()
	n := ix.Len()
	if n == 0 {
		return nil
	}
	chunk, count := r.streamChunks(n)
	a := r.arena()
	defer r.natPool.Put(a)
	if err := a.nm.SetQuery(q); err != nil {
		return err
	}
	rt.wall.lap(stageFS2Match)
	col := ix.Columnar()
	all := pred.File.All()

	access, err := u.drive.Access()
	if err != nil {
		return err
	}
	scanChunks := make([]time.Duration, 0, count)
	matchChunks := make([]time.Duration, 0, count)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		// Chunks default to one disk track (~1.5k entries), well under
		// scw.ParScanMinEntries, so the partitioned call degenerates to a
		// serial sweep unless StreamChunkEntries is configured large.
		col.ParScanRangeInto(qd, lo, hi, r.ScanWorkers(), r.scanPool, &a.pbuf)
		buf := &a.pbuf.Out
		rt.Stats.IndexBytes += buf.BytesScanned
		sTime := scw.ScanTime(buf.BytesScanned)
		dt, err := u.drive.Stream(buf.BytesScanned)
		if err != nil {
			return err
		}
		if dt > sTime {
			sTime = dt
		}
		rt.Stats.FS1Scan += sTime
		rt.Stats.AfterFS1 += len(buf.Pos)
		rt.Stats.MaskedHits += buf.MaskedHits
		scanChunks = append(scanChunks, sTime)
		rt.wall.lap(stageFS1Scan)

		fetchBytes := 0
		for _, p := range buf.Pos {
			fetchBytes += all[p].SizeBytes
		}
		rt.Stats.ClauseBytes += fetchBytes
		fetch, err := u.drive.FetchRun(len(buf.Pos), fetchBytes)
		if err != nil {
			return err
		}
		rt.Stats.DiskFetch += fetch
		matchChunks = append(matchChunks, fetch)
		rt.wall.lap(stageDiskFetch)

		nativeFilter(a.nm, pred.File, len(buf.Pos), buf.Pos, rt)
		rt.wall.lap(stageFS2Match)
	}
	rt.Stats.FS1Scan += access
	rt.Stats.Chunks = len(scanChunks)
	rt.Stats.Total = pipelineTime(access, scanChunks, matchChunks)
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
