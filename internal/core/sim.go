// Simulated execution engine: the chassis the paper built — FS2 boards
// behind VME buses, each fed by its own disk spindle — walked through its
// cycle-accurate register protocol. A sim retrieval leases one board unit
// for its duration; the hardware-filter search modes (b)/(c)/(d) drive
// the leased unit, and the pool tracks each unit's health. The native
// engine (native.go) builds and leases none of this.
package core

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"clare/internal/clausefile"
	"clare/internal/disk"
	"clare/internal/fault"
	"clare/internal/fs2"
	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/vme"
)

// boardUnit is one slot of the simulated chassis: an FS2 board behind its
// own VME bus, paired with the disk spindle that feeds it. The paper built
// exactly one of these (§2.2); the pool generalises it to a multi-board
// configuration so concurrent retrievals each get private hardware.
type boardUnit struct {
	slot  int
	board *fs2.Engine
	bus   *vme.Bus
	drive *disk.Drive

	// Health bookkeeping, guarded by the pool mutex.
	faults  int // consecutive faulted leases
	tripped bool
	leased  bool
	retryAt time.Time // when a tripped unit may be probed again
}

// boardPool manages N boardUnits with blocking lease/release semantics.
// The free list is a stack so a serial caller always reuses slot 0 —
// single-board behaviour (and its accumulated statistics) is then
// identical to the paper's one-board setup.
//
// The pool also tracks board health: a unit whose leases keep ending in
// injected faults is tripped out of rotation (the sick list) and only
// re-admitted, on probation, after a cool-off period. When every unit is
// sick and cooling, lease returns nil and the caller degrades to
// host-only operation instead of deadlocking.
type boardPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	free   []*boardUnit
	sick   []*boardUnit
	all    []*boardUnit
	leased int

	tripAfter   int
	probePeriod time.Duration
	trips       int64 // total trip events
	readmits    int64 // total probationary re-admissions

	// lastFS2 are per-slot statistics copies captured under mu each time
	// a unit is released. The aggregate reader (FS2Stats) sums these
	// instead of touching a board a concurrent retrieval may be driving,
	// so snapshots are race-free and never block behind the retrieval
	// queue. (Drive statistics need no copies: searchSim folds a released
	// unit's into Retriever.disk.)
	lastFS2 []fs2.Stats

	trippedG  *telemetry.Gauge
	tripsC    *telemetry.Counter
	readmitsC *telemetry.Counter
}

func newBoardPool(cfg Config, n int) (*boardPool, error) {
	if n < 1 {
		n = 1
	}
	p := &boardPool{
		tripAfter:   cfg.TripThreshold,
		probePeriod: cfg.ProbePeriod,
	}
	if p.tripAfter <= 0 {
		p.tripAfter = defaultTripThreshold
	}
	if p.probePeriod <= 0 {
		p.probePeriod = defaultProbePeriod
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
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
		key := strconv.Itoa(i)
		board.SetFaults(cfg.Faults, key)
		bus.SetFaults(cfg.Faults, key)
		drive.SetFaults(cfg.Faults, key)
		if cfg.Metrics != nil {
			slot := telemetry.Labels{"slot": key}
			board.Instrument(cfg.Metrics, slot)
			bus.Instrument(cfg.Metrics, slot)
			drive.Instrument(cfg.Metrics, slot)
		}
		u := &boardUnit{slot: i, board: board, bus: bus, drive: drive}
		p.all = append(p.all, u)
	}
	p.lastFS2 = make([]fs2.Stats, n)
	// Stack the free list with slot 0 on top.
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, p.all[i])
	}
	p.trippedG = cfg.Metrics.Gauge("clare_boards_tripped", "board units currently tripped out of rotation", nil)
	p.tripsC = cfg.Metrics.Counter("clare_board_trips_total", "board units tripped after consecutive faults", nil)
	p.readmitsC = cfg.Metrics.Counter("clare_board_readmits_total", "tripped board units re-admitted on probation", nil)
	return p, nil
}

// lease blocks until a unit is available and returns it; the caller owns
// the unit exclusively until release. A tripped unit whose cool-off has
// elapsed is handed out on probation. When every unit is sick and still
// cooling — and none is leased, so no release can free one — lease
// returns nil and the caller must degrade to host-only operation.
func (p *boardPool) lease() *boardUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if n := len(p.free); n > 0 {
			u := p.free[n-1]
			p.free = p.free[:n-1]
			u.leased = true
			p.leased++
			return u
		}
		if u := p.takeSickLocked(); u != nil {
			return u
		}
		if p.leased == 0 {
			return nil
		}
		p.cond.Wait()
	}
}

// takeSickLocked re-admits the first tripped unit whose cool-off has
// elapsed. The re-admission is probationary: the fault counter restarts
// one below the trip threshold, so a single further fault re-trips the
// unit while a clean lease clears it.
func (p *boardPool) takeSickLocked() *boardUnit {
	now := time.Now()
	for i, u := range p.sick {
		if now.Before(u.retryAt) {
			continue
		}
		p.sick = append(p.sick[:i], p.sick[i+1:]...)
		u.tripped = false
		u.faults = p.tripAfter - 1
		u.leased = true
		p.leased++
		p.readmits++
		p.readmitsC.Inc()
		p.trippedG.Add(-1)
		return u
	}
	return nil
}

// release resets the board's protocol state (the recycled board must not
// leak the previous retrieval's query or satisfiers), captures the board's
// statistics for snapshot readers, clears its consecutive-fault count,
// and returns the unit to the pool.
func (p *boardPool) release(u *boardUnit) {
	u.board.Reset()
	p.mu.Lock()
	p.lastFS2[u.slot] = u.board.Stats // the releaser still owns the unit
	u.leased = false
	u.faults = 0
	p.leased--
	p.free = append(p.free, u)
	p.mu.Unlock()
	p.cond.Signal()
}

// releaseFaulty returns a unit whose lease ended in an injected hardware
// fault. Consecutive faults trip the unit out of rotation until the
// cool-off elapses; a not-yet-tripped unit goes to the bottom of the free
// stack so an immediate retry lands on different hardware whenever any
// exists.
func (p *boardPool) releaseFaulty(u *boardUnit) {
	u.board.Reset()
	p.mu.Lock()
	p.lastFS2[u.slot] = u.board.Stats
	u.leased = false
	u.faults++
	p.leased--
	if u.faults >= p.tripAfter {
		u.tripped = true
		u.retryAt = time.Now().Add(p.probePeriod)
		p.sick = append(p.sick, u)
		p.trips++
		p.tripsC.Inc()
		p.trippedG.Add(1)
	} else {
		p.free = append([]*boardUnit{u}, p.free...)
	}
	p.mu.Unlock()
	// A trip can leave nothing leased, which flips waiting leasers into
	// the host-only return — wake them all to re-evaluate.
	p.cond.Broadcast()
}

// fs2Snapshot sums the per-slot FS2 statistics captured at release time.
// Like health, it answers zero for the nil pool of a native retriever.
func (p *boardPool) fs2Snapshot() (out fs2.Stats) {
	if p == nil {
		return out
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.lastFS2 {
		out.Add(p.lastFS2[i])
	}
	return out
}

// BoardHealth is one chassis slot's health state.
type BoardHealth struct {
	Slot    int
	Tripped bool
	Leased  bool
	// Faults is the unit's consecutive faulted leases (cleared by a
	// clean lease; at TripThreshold the unit trips).
	Faults int
}

// Health is a point-in-time snapshot of the board pool.
type Health struct {
	Boards   int
	Free     int
	Leased   int
	Tripped  int
	Trips    int64 // total trip events
	Readmits int64 // total probationary re-admissions
	Units    []BoardHealth
}

// health snapshots the pool under its lock.
func (p *boardPool) health() (h Health) {
	if p == nil {
		return h
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h = Health{
		Boards:   len(p.all),
		Free:     len(p.free),
		Leased:   p.leased,
		Tripped:  len(p.sick),
		Trips:    p.trips,
		Readmits: p.readmits,
	}
	for _, u := range p.all {
		h.Units = append(h.Units, BoardHealth{Slot: u.slot, Tripped: u.tripped, Leased: u.leased, Faults: u.faults})
	}
	return h
}

// errNoBoard is searchSim's answer when every unit is tripped and
// cooling off.
var errNoBoard = errors.New("core: no healthy board unit")

// searchSim runs one attempt of a retrieval on the simulated chassis:
// lease a unit, drive it in the given mode, and hand it back — to the
// free stack after a clean run, towards the sick list after an injected
// fault — and fold what it charged its drive into the retriever's totals.
// It returns errNoBoard, having run nothing, when no unit can be leased.
func (r *Retriever) searchSim(mode SearchMode, goal term.Term, pred *Predicate, rt *Retrieval) error {
	u := r.pool.lease()
	if u == nil {
		return errNoBoard
	}
	rt.wall.lap(stageLease)
	rt.slot = u.slot
	r.met.boardsBusy.Add(1)
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
	r.met.boardsBusy.Add(-1)
	r.disk.Add(u.drive.Stats)
	u.drive.Reset()
	if fault.Is(err) {
		r.pool.releaseFaulty(u)
	} else {
		r.pool.release(u)
	}
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
	rt.wall.lap(stageFS1Scan)

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
	rt.wall.lap(stageDiskFetch)
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
	rt.wall.lap(stageFS2Match)

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
		rt.wall.lap(stageFS1Scan)

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
		rt.wall.lap(stageDiskFetch)

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
	rt.wall.lap(stageDiskFetch)
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
// records through the leased board (the query must already be set),
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
	rt.wall.lap(stageFS2Match)
	return matchTime, clauseTimes, nil
}

// Makespan is the simulated completion time of a closed multi-client
// system over an N-board chassis: each of `clients` clients issues its
// next retrieval the moment its previous one completes, and every
// retrieval occupies the earliest-free of `boards` board units for its
// service time. service[i] is query i's simulated retrieval time
// (StageStats.Total), issued round-robin across the clients in order.
//
// Aggregate simulated throughput is then len(service) / Makespan: with
// one board the queries serialise (the paper's configuration); with N
// boards and at least N clients the makespan approaches the serial sum
// divided by N until the client count, not the chassis, is the limit.
func Makespan(service []time.Duration, boards, clients int) time.Duration {
	if boards < 1 {
		boards = 1
	}
	if clients < 1 {
		clients = 1
	}
	clientFree := make([]time.Duration, clients)
	boardFree := make([]time.Duration, boards)
	var makespan time.Duration
	for i, s := range service {
		c := i % clients
		b := 0
		for j := 1; j < boards; j++ {
			if boardFree[j] < boardFree[b] {
				b = j
			}
		}
		start := clientFree[c]
		if boardFree[b] > start {
			start = boardFree[b]
		}
		end := start + s
		clientFree[c] = end
		boardFree[b] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}
