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
// sites are bypassed along with the protocol itself.
//
// The engine owns no simulated hardware. A retrieval leases nothing: it
// reads the compiled files (shared, and immutable while the caller holds
// the predicate's read lock), works in an arena it owns for its duration,
// and charges the drive model on the arena's own ledger, folded into the
// retriever's totals when it finishes — so any number of retrievals run
// in parallel. See DESIGN.md §6 and §11.
package core

import (
	"time"

	"clare/internal/clausefile"
	"clare/internal/disk"
	"clare/internal/fs2"
	"clare/internal/scw"
	"clare/internal/telemetry"
	"clare/internal/term"
)

// nativeArena is the per-retrieval scratch state of the native engine:
// the scan buffer, an FS2 matcher with embedded variable stores, and the
// drive ledger the retrieval accounts on. Arenas are recycled through
// Retriever.natPool, so steady-state retrievals allocate nothing on the
// scan or match paths.
type nativeArena struct {
	buf scw.ScanBuf
	nm  *fs2.NativeMatcher
	// drive prices and counts this retrieval's disk traffic and probes the
	// drive fault sites, keyed as the one-board chassis keyed its spindle.
	// Its handles into the registry are shared; its Stats are the
	// retrieval's own until searchNative folds them into Retriever.disk.
	drive disk.Drive
}

// arena leases an arena from natPool, which builds one when it has none.
func (r *Retriever) arena() *nativeArena { return r.natPool.Get().(*nativeArena) }

// newArena builds an arena for natPool. It fails on a microprogram the
// native matcher lacks (NewWithSymbols builds the first arena to find
// that out), and resolving the drive's registry handles is what lists
// the clare_disk_* families on /metrics.
func (r *Retriever) newArena() (*nativeArena, error) {
	nm, err := fs2.NewNativeMatcher(r.cfg.Microprogram)
	if err != nil {
		return nil, err
	}
	a := &nativeArena{nm: nm, drive: disk.Drive{Model: r.cfg.Disk}}
	a.drive.SetFaults(r.cfg.Faults, "0")
	a.drive.Instrument(r.cfg.Metrics, telemetry.Labels{"slot": "0"})
	return a, nil
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
		err = r.retrieveSoftware(goal, pred, rt, &a.drive)
	case ModeFS1:
		err = r.retrieveFS1Native(goal, pred, rt, a)
	case ModeFS2:
		err = r.retrieveFS2AllNative(goal, pred, rt, a)
	case ModeFS1FS2:
		err = r.retrieveFS1FS2Native(goal, pred, rt, a)
	}
	r.met.boardsBusy.Add(-1)
	r.disk.Add(a.drive.Stats)
	a.drive.Reset()
	r.natPool.Put(a)
	return err
}

// retrieveFS1Native is mode (b) on the native engine: one serial columnar
// sweep of the secondary file, then a position-indexed gather of the
// surviving clause records with exact-size fetch accounting. Concurrent
// retrievals are the engine's parallelism; a partitioned sweep measured
// slower than this one (DESIGN.md §11).
func (r *Retriever) retrieveFS1Native(goal term.Term, pred *Predicate, rt *Retrieval, a *nativeArena) error {
	qd, _, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	buf := &a.buf
	pred.File.Index().Columnar().ScanInto(qd, buf)
	rt.Stats.IndexBytes = buf.BytesScanned
	diskIndex, err := a.drive.IndexScan(buf.BytesScanned)
	if err != nil {
		return err
	}
	// Same delivery model as the sim path: FS1 outruns the disk.
	rt.Stats.FS1Scan = max(scw.ScanTime(buf.BytesScanned), diskIndex)
	rt.Stats.AfterFS1 = len(buf.Pos)
	rt.Stats.MaskedHits = buf.MaskedHits
	rt.wall.lap(stageFS1Scan)

	all := pred.File.All()
	rt.Candidates = make([]*clausefile.StoredClause, 0, len(buf.Pos))
	for _, p := range buf.Pos {
		rt.Stats.ClauseBytes += all[p].SizeBytes
		rt.Candidates = append(rt.Candidates, all[p])
	}
	if rt.Stats.DiskFetch, err = a.drive.FetchRun(len(buf.Pos), rt.Stats.ClauseBytes); err != nil {
		return err
	}
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
func (r *Retriever) retrieveFS2AllNative(goal term.Term, pred *Predicate, rt *Retrieval, a *nativeArena) error {
	rt.Stats.AfterFS1 = pred.File.Len()
	rt.Stats.ClauseBytes = pred.File.SizeBytes()
	diskTime, err := a.drive.Scan(pred.File.SizeBytes())
	if err != nil {
		return err
	}
	rt.wall.lap(stageDiskFetch)
	_, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	if err := a.nm.SetQuery(q); err != nil {
		return err
	}
	nativeFilter(a.nm, pred.File, pred.File.Len(), nil, rt)
	rt.wall.lap(stageFS2Match)
	rt.Stats.DiskFetch = diskTime
	rt.Stats.Total = diskTime
	return nil
}

// retrieveFS1FS2Native is mode (d) on the native engine: one serial
// columnar sweep of the whole index, one pass of the survivors through
// the native matcher, and between them the sim path's chunked pipeline
// ledger derived from where the survivors fall. The survivors come out in
// position order, so one walk over them splits them by pipeline chunk
// (streamChunks): chunk c streamed its entries' index bytes and fetched
// the survivors lying in it, and the drive is charged — and its fault
// sites probed — chunk by chunk in the order the pipeline would have
// issued the transfers. In the simulated pipeline the per-chunk match
// side is free, so the slower side of each downstream step is always the
// fetch.
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

	all := pred.File.All()
	chunk, count := r.streamChunks(n)
	access, err := a.drive.Access()
	if err != nil {
		return err
	}
	scanChunks := make([]time.Duration, 0, count)
	matchChunks := make([]time.Duration, 0, count)
	k := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		indexBytes := (hi - lo) * scw.EntrySize
		dt, err := a.drive.Stream(indexBytes)
		if err != nil {
			return err
		}
		sTime := max(scw.ScanTime(indexBytes), dt)
		rt.Stats.FS1Scan += sTime
		scanChunks = append(scanChunks, sTime)

		first, fetchBytes := k, 0
		for ; k < len(buf.Pos) && int(buf.Pos[k]) < hi; k++ {
			fetchBytes += all[buf.Pos[k]].SizeBytes
		}
		rt.Stats.ClauseBytes += fetchBytes
		fetch, err := a.drive.FetchRun(k-first, fetchBytes)
		if err != nil {
			return err
		}
		rt.Stats.DiskFetch += fetch
		matchChunks = append(matchChunks, fetch)
	}
	rt.Stats.FS1Scan += access
	rt.Stats.Chunks = count
	rt.Stats.Total = pipelineTime(access, scanChunks, matchChunks)
	rt.wall.lap(stageDiskFetch)

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
