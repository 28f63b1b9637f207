package fs2

import (
	"errors"
	"fmt"
	"time"

	"clare/internal/fault"
	"clare/internal/hw"
	"clare/internal/pif"
)

// Mode is the FS2 operational mode, selected by bits b0/b1 of the control
// register (§3):
//
//	Read Result      b0=0 b1=0
//	Search           b0=0 b1=1
//	Microprogramming b0=1 b1=0
//	Set Query        b0=1 b1=1
type Mode uint8

const (
	ModeReadResult Mode = iota
	ModeSearch
	ModeMicroprogramming
	ModeSetQuery
)

func (m Mode) String() string {
	switch m {
	case ModeReadResult:
		return "Read Result"
	case ModeSearch:
		return "Search"
	case ModeMicroprogramming:
		return "Microprogramming"
	case ModeSetQuery:
		return "Set Query"
	}
	return "Mode?"
}

// ControlBits returns the (b0, b1) encoding of the mode per §3's table.
func (m Mode) ControlBits() (b0, b1 uint8) {
	switch m {
	case ModeReadResult:
		return 0, 0
	case ModeSearch:
		return 0, 1
	case ModeMicroprogramming:
		return 1, 0
	case ModeSetQuery:
		return 1, 1
	}
	return 0, 0
}

// ModeFromBits decodes control-register bits b0/b1.
func ModeFromBits(b0, b1 uint8) Mode {
	switch {
	case b0 == 0 && b1 == 0:
		return ModeReadResult
	case b0 == 0 && b1 == 1:
		return ModeSearch
	case b0 == 1 && b1 == 0:
		return ModeMicroprogramming
	default:
		return ModeSetQuery
	}
}

// Microprogram configures the matching behaviour loaded into the Writable
// Control Store. The default program implements the paper's adopted
// algorithm: level-3 partial test unification with variable cross-binding
// checks. Alternative programs realise the other §2.2 levels — the "type
// driven" dispatch is data, not hardware.
type Microprogram struct {
	Name string
	// CompareContent enables content-field comparison (level ≥ 2).
	CompareContent bool
	// DescendElements enables first-level element matching of in-line
	// complex terms (level ≥ 3).
	DescendElements bool
	// CrossBinding enables the variable cross-binding consistency checks.
	CrossBinding bool
	// DescendFull walks pointer forms into the clause heap for exact
	// full-structure comparison — the levels 4/5 the paper rejected as
	// too costly in hardware (§2.2), provided here for what-if studies.
	DescendFull bool
}

// Standard microprograms.
var (
	// MPLevel3XB is the paper's FS2 algorithm (§2.2): level 3 plus
	// cross-binding checks.
	MPLevel3XB = Microprogram{Name: "level3+xb", CompareContent: true, DescendElements: true, CrossBinding: true}
	// MPLevel3 is plain level 3.
	MPLevel3 = Microprogram{Name: "level3", CompareContent: true, DescendElements: true}
	// MPLevel2 compares type and content, ignoring complex structures.
	MPLevel2 = Microprogram{Name: "level2", CompareContent: true}
	// MPLevel1 compares types only.
	MPLevel1 = Microprogram{Name: "level1"}
)

// Stats accumulates engine activity across searches.
type Stats struct {
	// OpCounts is the number of times each hardware operation ran.
	OpCounts [numOps]int64
	// MatchTime is the simulated TUE time: Σ op count × Table-1 op time.
	MatchTime time.Duration
	// ClausesExamined and ClausesMatched count the filter's work.
	ClausesExamined int
	ClausesMatched  int
	// BytesExamined is the PIF bytes streamed through the Double Buffer.
	BytesExamined int64
	// ResultOverflows counts matches lost to Result Memory capacity.
	ResultOverflows int
	// Faults counts injected board faults (TUE traps) this engine raised.
	Faults int
	// RejectsLevel and RejectsXB split the rejected clauses by cause:
	// plain level-3 structural/content mismatches versus variable
	// cross-binding consistency failures. Their sum is
	// ClausesExamined - ClausesMatched (minus functor/arity gate skips,
	// which count as level rejects).
	RejectsLevel int
	RejectsXB    int
}

// OpCount returns the count for one op.
func (s *Stats) OpCount(op OpCode) int64 { return s.OpCounts[op] }

// TotalOps sums all operation executions.
func (s *Stats) TotalOps() int64 {
	var n int64
	for _, c := range s.OpCounts {
		n += c
	}
	return n
}

// Engine is the FS2 board: WCS + TUE + Double Buffer + Result Memory.
type Engine struct {
	mode    Mode
	mp      Microprogram
	loaded  bool // microprogram loaded
	wcs     []Microword
	program *Program
	opTime  [numOps]time.Duration

	// Query side (Set Query mode loads these).
	query  *pif.Encoded
	qMem   []pif.Word
	qBound []bool

	// Per-clause database side.
	dbMem   []pif.Word
	dbBound []bool
	// lastRejectXB classifies the most recent matchClause failure: true
	// when a cross-binding consistency check rejected the clause.
	lastRejectXB bool

	// Position-based stores for DescendFull microprograms (levels 4/5).
	dbRef      []ref
	qRef       []ref
	dbRefBound []bool
	qRefBound  []bool

	buffer  DoubleBuffer
	result  ResultMemory
	matched bool // control register b7

	// countFn is the cached e.countOp method value handed to clauseMatch,
	// so matchClause does not allocate a closure per clause.
	countFn func(OpCode)

	Stats Stats

	// flt, when non-nil, injects board faults: Search probes
	// fault.SiteFS2 before streaming a batch through the TUE.
	flt    *fault.Injector
	fltKey string
}

// Errors.
var (
	ErrWrongMode   = errors.New("fs2: operation invalid in current mode")
	ErrNoQuery     = errors.New("fs2: no query loaded")
	ErrNoMicrocode = errors.New("fs2: no microprogram loaded")
)

// New returns an FS2 engine in Read Result mode with no microprogram.
func New() *Engine {
	e := &Engine{}
	for code, op := range Operations() {
		e.opTime[code] = op.Time()
	}
	return e
}

// SetFaults arms fault injection on the board. key identifies the board
// to keyed rules (its board unit's).
func (e *Engine) SetFaults(inj *fault.Injector, key string) {
	e.flt = inj
	e.fltKey = key
}

// Mode returns the current operational mode.
func (e *Engine) Mode() Mode { return e.mode }

// SetMode switches the operational mode (the host writing b0/b1).
func (e *Engine) SetMode(m Mode) { e.mode = m }

// MatchFound reports control-register bit b7: set when the last search
// found at least one satisfier.
func (e *Engine) MatchFound() bool { return e.matched }

// LoadMicroprogram loads mp into the WCS. Requires Microprogramming mode.
func (e *Engine) LoadMicroprogram(mp Microprogram) error {
	if e.mode != ModeMicroprogramming {
		return fmt.Errorf("%w: LoadMicroprogram in %v", ErrWrongMode, e.mode)
	}
	e.mp = mp
	e.loaded = true
	return nil
}

// SetQuery writes the query argument terms into the Query Memory.
// Requires Set Query mode.
func (e *Engine) SetQuery(q *pif.Encoded) error {
	if e.mode != ModeSetQuery {
		return fmt.Errorf("%w: SetQuery in %v", ErrWrongMode, e.mode)
	}
	if q.Side != pif.QuerySide {
		return fmt.Errorf("fs2: query must be encoded with query-side variable tags")
	}
	e.query = q
	e.qMem = make([]pif.Word, q.NumVars)
	e.qBound = make([]bool, q.NumVars)
	return nil
}

// Reset clears the board's per-retrieval protocol state — loaded query,
// result memory, match flag, and mode — so the board can be handed to
// the next attempt without leaking the previous one's satisfiers.
// The microprogram in the WCS and the accumulated Stats survive: reload
// is a separate host decision (§3's Microprogramming mode), and the
// statistics model a hardware counter the host reads out explicitly.
func (e *Engine) Reset() {
	e.mode = ModeReadResult
	e.query = nil
	e.qMem = nil
	e.qBound = nil
	e.dbMem = nil
	e.dbBound = nil
	e.dbRef = nil
	e.qRef = nil
	e.dbRefBound = nil
	e.qRefBound = nil
	e.result.Reset()
	e.matched = false
}

// Record is one clause streamed from disk: its address in the compiled
// clause file and its PIF encoding.
type Record struct {
	Addr uint32
	Enc  *pif.Encoded
}

// SearchResult reports one search call.
type SearchResult struct {
	// Matches are the addresses of the satisfiers captured in the Result
	// Memory, in stream order.
	Matches []uint32
	// Examined is the number of clauses streamed through.
	Examined int
	// MatchTime is the simulated TUE time for this search only.
	MatchTime time.Duration
	// ClauseTimes is the per-clause TUE time, in stream order — the
	// quantity the Double Buffer overlaps against each clause's disk
	// transfer time ("the clock period is ... the time taken for the
	// Double Buffer to read in 2 clauses", §3.2).
	ClauseTimes []time.Duration
	// Overflowed reports Result Memory exhaustion (the search still
	// completes; extra satisfiers are lost and counted in Stats).
	Overflowed bool
	// RejectsLevel and RejectsXB split this search's rejections by cause
	// (see Stats).
	RejectsLevel int
	RejectsXB    int
}

// Search streams the records through the Double Buffer, runs partial test
// unification on each, and captures satisfiers in the Result Memory.
// Requires Search mode, a loaded microprogram and a loaded query.
func (e *Engine) Search(records []Record) (SearchResult, error) {
	if e.mode != ModeSearch {
		return SearchResult{}, fmt.Errorf("%w: Search in %v", ErrWrongMode, e.mode)
	}
	if !e.loaded {
		return SearchResult{}, ErrNoMicrocode
	}
	if e.query == nil {
		return SearchResult{}, ErrNoQuery
	}
	// An injected board fault (a TUE microprogram trap mid-stream) aborts
	// the call before any satisfier is captured; the host must re-run the
	// batch elsewhere.
	if err := e.flt.Probe(fault.SiteFS2, e.fltKey); err != nil {
		e.Stats.Faults++
		return SearchResult{}, err
	}
	e.result.Reset()
	e.matched = false
	// Query variable bindings persist for the duration of one clause
	// comparison only; reset per clause below.
	var res SearchResult
	before := e.Stats.MatchTime
	for _, rec := range records {
		e.buffer.Load(rec.Enc.SizeBytes())
		e.Stats.BytesExamined += int64(rec.Enc.SizeBytes())
		e.Stats.ClausesExamined++
		res.Examined++
		clauseStart := e.Stats.MatchTime
		if e.matchClause(rec.Enc) {
			e.Stats.ClausesMatched++
			if e.result.Capture(rec.Addr, rec.Enc.SizeBytes()) {
				res.Matches = append(res.Matches, rec.Addr)
				e.matched = true
			} else {
				e.Stats.ResultOverflows++
				res.Overflowed = true
			}
		} else if e.lastRejectXB {
			e.Stats.RejectsXB++
			res.RejectsXB++
		} else {
			e.Stats.RejectsLevel++
			res.RejectsLevel++
		}
		res.ClauseTimes = append(res.ClauseTimes, e.Stats.MatchTime-clauseStart)
	}
	res.MatchTime = e.Stats.MatchTime - before
	return res, nil
}

// ReadResult returns the satisfier addresses captured by the last search.
// Requires Read Result mode.
func (e *Engine) ReadResult() ([]uint32, error) {
	if e.mode != ModeReadResult {
		return nil, fmt.Errorf("%w: ReadResult in %v", ErrWrongMode, e.mode)
	}
	return e.result.Addresses(), nil
}

// countOp records one execution of op in the statistics.
func (e *Engine) countOp(op OpCode) {
	e.Stats.OpCounts[op]++
	e.Stats.MatchTime += e.opTime[op]
}

// OpTime exposes the derived Table-1 execution time for op.
func (e *Engine) OpTime(op OpCode) time.Duration { return e.opTime[op] }

// Breakdowns returns the per-figure timing calculations (Figures 6–12).
func Breakdowns() []hw.Operation {
	ops := Operations()
	order := []OpCode{OpMatch, OpDBStore, OpQueryStore, OpDBFetch,
		OpQueryFetch, OpDBCrossBoundFetch, OpQueryCrossBoundFetch}
	out := make([]hw.Operation, 0, len(order))
	for _, c := range order {
		out = append(out, ops[c])
	}
	return out
}
