package scw

import (
	"sync"
	"sync/atomic"
	"time"
)

// Partitioned columnar scans. No retrieval runs them: the server sweeps
// serially (DESIGN.md §11) since the partitioned sweep measured 0.46× of
// the serial one at two workers. This file and its tests stay only
// because bench/trace.go compiles against NewScanPool, ParScanBuf,
// ParScanInto and ParScanRangeInto for its scw.scan_par_us timing; they
// go with ROADMAP item 1(c).
//
// The 64-entry block layout is already partition-friendly: a scan of
// [lo, hi) is the concatenation of scans of any contiguous cover of
// [lo, hi), because each entry's match is decided
// by that entry alone (the blockOr summaries only short-circuit the
// per-entry mask lookup, never change its outcome). ParScanRangeInto
// exploits this: it splits the range into per-worker partitions aligned
// to colBlock boundaries, scans partition 0 on the calling goroutine
// while a persistent worker pool sweeps the rest, and concatenates the
// survivor positions in partition order. Since partitions are contiguous
// and ordered, the merged output — positions, MaskedHits, entry/byte
// accounting — is bit-identical to the serial ScanRangeInto at any
// worker count, which columnar_test.go and parscan_test.go enforce.
//
// The pool exists because spawning a goroutine per scan allocates (the
// runtime heap-allocates the closure context since Go 1.17). Workers are
// started lazily on first use, park on a channel between scans, and exit
// after scanPoolIdle without work, so an idle pool holds no goroutines.

// ParScanMinEntries is the smallest partition worth handing to a worker:
// below this, channel handoff and wakeup latency cost more than the scan
// itself (a partition this size is ~4 µs of AND/compare work). The
// effective worker count of a scan is clamped so every partition has at
// least this many entries. It is a variable so tests can force small
// scans through the parallel path; production code treats it as a
// constant.
var ParScanMinEntries = 4096

// scanPoolIdle is how long a pool worker waits for work before exiting.
const scanPoolIdle = 500 * time.Millisecond

// scanTask is one partition handed to a pool worker. Tasks are owned and
// preallocated by a ParScanBuf, so submitting one allocates nothing.
type scanTask struct {
	col    *Columnar
	qd     QueryDescriptor
	lo, hi int
	buf    *ScanBuf
	wg     *sync.WaitGroup
}

func (t *scanTask) run() {
	t.col.ScanRangeInto(t.qd, t.lo, t.hi, t.buf)
	t.wg.Done()
}

// ScanPool runs scan partitions on a bounded set of persistent worker
// goroutines shared by all scans of its owner. A nil *ScanPool is
// valid and means "no helpers": every ParScanRangeInto through it runs
// serially on the caller.
type ScanPool struct {
	tasks chan *scanTask
	live  atomic.Int32
	max   int32
}

// NewScanPool returns a pool running at most helpers concurrent workers
// (0 helpers is valid: the pool exists but every scan stays serial).
// Workers spawn lazily and idle-exit, so an unused pool costs only its
// channel — sizing the bound above GOMAXPROCS is harmless and keeps the
// partitioned path exercisable on small hosts (concurrency without
// parallelism). bench/trace.go is its only caller outside this package's
// tests.
func NewScanPool(helpers int) *ScanPool {
	if helpers < 0 {
		helpers = 0
	}
	return &ScanPool{
		// The buffer bounds queued partitions, not correctness: tasks
		// are consumed by live workers, and submit guarantees a worker
		// exists after every enqueue (see the exit protocol below).
		tasks: make(chan *scanTask, 1024),
		max:   int32(helpers),
	}
}

// MaxHelpers reports the pool's worker bound (0 for a nil pool).
func (p *ScanPool) MaxHelpers() int {
	if p == nil {
		return 0
	}
	return int(p.max)
}

// LiveWorkers reports the currently running workers — a pool invariant
// probe for the tests: it never exceeds MaxHelpers by more than
// the transient re-admission in the exit protocol.
func (p *ScanPool) LiveWorkers() int {
	if p == nil {
		return 0
	}
	return int(p.live.Load())
}

// submit enqueues a task and makes sure a worker will run it. The order
// matters: enqueue first, then check live workers. Combined with the
// worker exit protocol (decrement live, then one final drain), every
// task is picked up: if a worker's final drain misses this task, the
// enqueue happened after the drain, so this load observes the decrement
// (Go atomics are sequentially consistent) and spawns a replacement.
func (p *ScanPool) submit(t *scanTask) {
	p.tasks <- t
	for {
		n := p.live.Load()
		if n >= p.max {
			return
		}
		if p.live.CompareAndSwap(n, n+1) {
			go p.worker()
			return
		}
	}
}

func (p *ScanPool) worker() {
	timer := time.NewTimer(scanPoolIdle)
	defer timer.Stop()
	for {
		select {
		case t := <-p.tasks:
			t.run()
			continue
		default:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(scanPoolIdle)
		select {
		case t := <-p.tasks:
			t.run()
		case <-timer.C:
			// Exit protocol: declare death first, then drain one last
			// time. A task enqueued before the decrement is caught by
			// the drain; one enqueued after it makes its submitter see
			// live < max and spawn a replacement. Either way no task is
			// stranded.
			p.live.Add(-1)
			select {
			case t := <-p.tasks:
				p.live.Add(1)
				t.run()
			default:
				return
			}
		}
	}
}

// ParScanBuf is the reusable state of one partitioned scan: the merged
// output buffer, one ScanBuf per helper partition, and the preallocated
// task slots. Like ScanBuf, a zero ParScanBuf is ready to use and reuse
// amortises every internal allocation — steady-state partitioned scans
// allocate nothing at any worker count. bench/trace.go is its only user
// outside this package's tests.
type ParScanBuf struct {
	// Out receives the merged survivors, bit-identical to what a serial
	// ScanRangeInto over the same range would produce.
	Out ScanBuf

	parts []ScanBuf
	tasks []scanTask
	wg    sync.WaitGroup
}

// ensure grows the helper buffers to k partitions.
func (pb *ParScanBuf) ensure(k int) {
	for len(pb.parts) < k {
		pb.parts = append(pb.parts, ScanBuf{})
		pb.tasks = append(pb.tasks, scanTask{})
	}
}

// ParScanInto scans the whole file with up to workers partitions.
// bench/trace.go is its only caller outside this package's tests.
func (c *Columnar) ParScanInto(qd QueryDescriptor, workers int, pool *ScanPool, pb *ParScanBuf) {
	c.ParScanRangeInto(qd, 0, len(c.codes), workers, pool, pb)
}

// ParScanRangeInto scans entries [lo, hi) (clamped to the file) into
// pb.Out using up to workers contiguous partitions: partition 0 on the
// calling goroutine, the rest on the pool. The effective partition count
// is clamped by the pool's worker bound and by ParScanMinEntries, and
// partitions are aligned to colBlock boundaries so every worker keeps
// the unmasked-block fast path. The merged result is bit-identical to
// ScanRangeInto over the same range regardless of the worker count.
// bench/trace.go is its only caller outside this package's tests.
func (c *Columnar) ParScanRangeInto(qd QueryDescriptor, lo, hi, workers int, pool *ScanPool, pb *ParScanBuf) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.codes) {
		hi = len(c.codes)
	}
	if lo > hi {
		lo = hi
	}
	span := hi - lo
	// Grow the merged survivor buffer up front: partition 0 scans into
	// it directly, and the helper appends below must fit without
	// reallocating.
	if cap(pb.Out.Pos) < span {
		pb.Out.Pos = make([]uint32, 0, span)
	}
	parts := workers
	if m := pool.MaxHelpers() + 1; parts > m {
		parts = m
	}
	if min := ParScanMinEntries; min > 0 {
		if bySize := span / min; parts > bySize {
			parts = bySize
		}
	}
	if parts <= 1 {
		c.ScanRangeInto(qd, lo, hi, &pb.Out)
		return
	}
	per := (span + parts - 1) / parts
	per = (per + colBlock - 1) / colBlock * colBlock
	parts = (span + per - 1) / per
	if parts <= 1 {
		c.ScanRangeInto(qd, lo, hi, &pb.Out)
		return
	}

	k := parts - 1
	pb.ensure(k)
	pb.wg.Add(k)
	for i := 0; i < k; i++ {
		t := &pb.tasks[i]
		t.col = c
		t.qd = qd
		t.lo = lo + (i+1)*per
		t.hi = t.lo + per
		if t.hi > hi {
			t.hi = hi
		}
		t.buf = &pb.parts[i]
		t.wg = &pb.wg
		pool.submit(t)
	}
	c.ScanRangeInto(qd, lo, lo+per, &pb.Out)
	pb.wg.Wait()
	for i := 0; i < k; i++ {
		p := &pb.parts[i]
		pb.Out.Pos = append(pb.Out.Pos, p.Pos...)
		pb.Out.MaskedHits += p.MaskedHits
		pb.Out.EntriesScanned += p.EntriesScanned
		pb.Out.BytesScanned += p.BytesScanned
	}
}
