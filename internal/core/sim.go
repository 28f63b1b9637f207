// Simulated execution engine: the one board unit the paper built — an FS2
// board behind its VME bus, fed by its disk drive — walked through its
// cycle-accurate register protocol. A sim retrieval holds the unit for
// each attempt, so sim retrievals serialise: the sim engine is the oracle
// and the ledger, not a server. The hardware-filter search modes
// (b)/(c)/(d) drive the unit. The native engine (native.go) builds none of
// this.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"clare/internal/clausefile"
	"clare/internal/disk"
	"clare/internal/fs2"
	"clare/internal/term"
	"clare/internal/vme"
)

// unitKey is the one unit's fault-probe key.
const unitKey = "0"

// boardUnit is the paper's one FS2 board behind its VME bus, paired with
// the disk drive that feeds it (§2.2). mu is held for a whole attempt.
type boardUnit struct {
	mu    sync.Mutex
	board *fs2.Engine
	bus   *vme.Bus
	drive *disk.Drive

	// last holds copies of the board's and drive's statistics, stored as
	// each attempt lets go of the unit, so FS2Stats and DiskStats never
	// wait behind a retrieval.
	last atomic.Pointer[unitStats]
}

type unitStats struct {
	fs2  fs2.Stats
	disk disk.Stats
}

func newBoardUnit(cfg Config) (*boardUnit, error) {
	board := fs2.New()
	bus := vme.NewBus(board)
	// Board bring-up precedes fault arming: microprogram load is a
	// maintenance action, not part of the serving path.
	if _, err := bus.SelectFS2(fs2.ModeMicroprogramming); err != nil {
		return nil, err
	}
	if err := board.LoadMicroprogram(cfg.Microprogram); err != nil {
		return nil, err
	}
	drive := disk.NewDrive(cfg.Disk)
	board.SetFaults(cfg.Faults, unitKey)
	bus.SetFaults(cfg.Faults, unitKey)
	drive.SetFaults(cfg.Faults, unitKey)
	u := &boardUnit{board: board, bus: bus, drive: drive}
	u.last.Store(&unitStats{})
	return u, nil
}

// stats reports the statistics the unit held when an attempt last let go
// of it (zero for the nil unit of a native retriever).
func (u *boardUnit) stats() unitStats {
	if u == nil {
		return unitStats{}
	}
	return *u.last.Load()
}

// searchSim runs one attempt of a retrieval on the board unit: it waits
// for the unit, drives it in the given mode, and lets go of it with the
// board's protocol state reset — a retry must not inherit the faulted
// attempt's query or satisfiers — and its statistics published.
func (r *Retriever) searchSim(mode SearchMode, goal term.Term, pred *Predicate, rt *Retrieval) error {
	u := r.unit
	u.mu.Lock()
	defer u.mu.Unlock()
	var err error
	switch mode {
	case ModeSoftware:
		err = r.retrieveSoftware(goal, pred, rt, u.drive)
	case ModeFS1:
		err = r.retrieveFS1(goal, pred, rt, u)
	case ModeFS2:
		err = r.retrieveFS2All(goal, pred, rt, u)
	case ModeFS1FS2:
		err = r.retrieveFS1FS2(goal, pred, rt, u)
	}
	u.board.Reset()
	u.last.Store(&unitStats{fs2: u.board.Stats, disk: u.drive.Stats})
	return err
}

// retrieveFS1 scans the secondary file and fetches the surviving clause
// records — mode (b).
func (r *Retriever) retrieveFS1(goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	qd, _, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	scan := pred.File.Index().Scan(qd)
	rt.Stats.IndexBytes = scan.BytesScanned
	// The index streams from disk through FS1; FS1 (4.5 MB/s) outruns the
	// disk, so delivery dominates.
	diskIndex, err := u.drive.IndexScan(scan.BytesScanned)
	if err != nil {
		return err
	}
	fs1Time := scan.Elapsed
	if diskIndex > fs1Time {
		fs1Time = diskIndex
	}
	rt.Stats.FS1Scan = fs1Time
	rt.Stats.AfterFS1 = len(scan.Addrs)
	rt.Stats.MaskedHits = scan.MaskedHits

	candidates, err := pred.File.ByAddrs(scan.Addrs)
	if err != nil {
		return err
	}
	fetchBytes := 0
	for _, sc := range candidates {
		fetchBytes += sc.SizeBytes
	}
	rt.Stats.ClauseBytes = fetchBytes
	avg := 0
	if len(candidates) > 0 {
		avg = fetchBytes / len(candidates)
	}
	if rt.Stats.DiskFetch, err = u.drive.Fetch(len(candidates), avg); err != nil {
		return err
	}
	rt.Candidates = candidates
	rt.Stats.Total = rt.Stats.FS1Scan + rt.Stats.DiskFetch
	return nil
}

// retrieveFS1FS2 is mode (d) restructured as a streaming pipeline: the
// secondary file is consumed in chunks, and as soon as FS1 emits a
// chunk's survivors their clause records are fetched and matched by FS2
// — while FS1 is already scanning the next chunk. This lifts the
// Double-Buffer idea (overlap transfer with matching) from the datapath
// to the stage pipeline: per chunk the slower of {FS1 delivery} and
// {fetch + FS2 match} dominates, accounted by pipelineTime.
func (r *Retriever) retrieveFS1FS2(goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	qd, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	ix := pred.File.Index()
	n := ix.Len()
	if n == 0 {
		return nil
	}
	chunk, count := r.cfg.streamChunks(n)

	if _, err := u.bus.SelectFS2(fs2.ModeSetQuery); err != nil {
		return err
	}
	if err := u.board.SetQuery(q); err != nil {
		return err
	}

	// One positioning access starts the sequential index stream; chunk
	// transfers then continue at the sustained rate.
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
		scan := ix.ScanRange(qd, lo, hi)
		rt.Stats.IndexBytes += scan.BytesScanned
		// FS1 outruns the disk, so chunk delivery dominates the scan.
		sTime := scan.Elapsed
		dt, err := u.drive.Stream(scan.BytesScanned)
		if err != nil {
			return err
		}
		if dt > sTime {
			sTime = dt
		}
		rt.Stats.FS1Scan += sTime
		rt.Stats.AfterFS1 += len(scan.Addrs)
		rt.Stats.MaskedHits += scan.MaskedHits
		scanChunks = append(scanChunks, sTime)

		candidates, err := pred.File.ByAddrs(scan.Addrs)
		if err != nil {
			return err
		}
		fetchBytes := 0
		for _, sc := range candidates {
			fetchBytes += sc.SizeBytes
		}
		rt.Stats.ClauseBytes += fetchBytes
		avg := 0
		if len(candidates) > 0 {
			avg = fetchBytes / len(candidates)
		}
		fetch, err := u.drive.Fetch(len(candidates), avg)
		if err != nil {
			return err
		}
		rt.Stats.DiskFetch += fetch

		match, _, err := r.searchFS2(u, candidates, rt)
		if err != nil {
			return err
		}
		// Within the chunk, the fetched stream passes through FS2 on the
		// fly (the Double Buffer): the slower side dominates.
		mTime := fetch
		if match > mTime {
			mTime = match
		}
		matchChunks = append(matchChunks, mTime)
	}
	rt.Stats.FS1Scan += access
	rt.Stats.Chunks = len(scanChunks)
	rt.Stats.Total = pipelineTime(access, scanChunks, matchChunks)
	return nil
}

// retrieveFS2All streams the whole clause file through FS2 — mode (c).
// The Double Buffer overlaps each clause's matching with the next
// clause's transfer, so the stream time is computed per clause:
//
//	access + xfer₀ + Σᵢ₌₁ max(xferᵢ, matchᵢ₋₁) + match_last
func (r *Retriever) retrieveFS2All(goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	all := pred.File.All()
	rt.Stats.AfterFS1 = len(all)
	rt.Stats.ClauseBytes = pred.File.SizeBytes()
	diskTime, err := u.drive.Scan(pred.File.SizeBytes())
	if err != nil {
		return err
	}
	_, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	if _, err := u.bus.SelectFS2(fs2.ModeSetQuery); err != nil {
		return err
	}
	if err := u.board.SetQuery(q); err != nil {
		return err
	}
	_, clauseTimes, err := r.searchFS2(u, all, rt)
	if err != nil {
		return err
	}
	xfers := make([]time.Duration, len(all))
	for i, sc := range all {
		xfers[i] = r.cfg.Disk.TransferTime(sc.SizeBytes)
	}
	rt.Stats.DiskFetch = diskTime
	rt.Stats.Total = pipelineTime(r.cfg.Disk.AccessTime(), xfers, clauseTimes)
	return nil
}

// searchFS2 drives the §3 register protocol for one stream of clause
// records through the board (the query must already be set),
// appends the satisfiers to rt.Candidates and returns the stream's match
// time plus per-clause times (for pipeline accounting).
func (r *Retriever) searchFS2(u *boardUnit, in []*clausefile.StoredClause, rt *Retrieval) (time.Duration, []time.Duration, error) {
	records := make([]fs2.Record, len(in))
	for i, sc := range in {
		records[i] = fs2.Record{Addr: sc.Addr, Enc: sc.Head}
	}
	// The Result Memory bounds one FS2 search call (§3.2: "the worst case
	// of a single FS2 search call" is one disk track). The CRS issues the
	// stream in batches the satisfier counter can always accommodate, so
	// no satisfier is ever lost to the 6-bit counter.
	var matchTime time.Duration
	var clauseTimes []time.Duration
	var addrs []uint32
	for start := 0; start < len(records); start += fs2.ResultSlots {
		end := start + fs2.ResultSlots
		if end > len(records) {
			end = len(records)
		}
		if _, err := u.bus.SelectFS2(fs2.ModeSearch); err != nil {
			return 0, nil, err
		}
		res, err := u.board.Search(records[start:end])
		if err != nil {
			return 0, nil, err
		}
		matchTime += res.MatchTime
		clauseTimes = append(clauseTimes, res.ClauseTimes...)
		rt.Stats.FS2RejectsLevel += res.RejectsLevel
		rt.Stats.FS2RejectsXB += res.RejectsXB
		if res.Overflowed {
			rt.Stats.Overflowed = true
		}
		if _, err := u.bus.SelectFS2(fs2.ModeReadResult); err != nil {
			return 0, nil, err
		}
		batch, err := u.board.ReadResult()
		if err != nil {
			return 0, nil, err
		}
		addrs = append(addrs, batch...)
	}
	rt.Stats.FS2Match += matchTime
	matched, err := rt.pred.File.ByAddrs(addrs)
	if err != nil {
		return 0, nil, err
	}
	rt.Candidates = append(rt.Candidates, matched...)
	return matchTime, clauseTimes, nil
}
