package plan

import "sync"

// Nominal per-clause stage costs, in nanoseconds. These seed the cost
// model before any observations exist; they mirror the simulation's
// defaults (a 50µs M68020-class host unification dominating everything,
// an index-entry scan that is two orders of magnitude cheaper, fetch
// and FS2 match in between), so a cold planner ranks the modes the way
// the paper's §2.2 heuristic does. Once a (predicate, shape, mode) cell
// has minLearnObs observations, its EWMA simulated cost replaces the
// model term outright.
const (
	costHostNS  = 50_000
	costScanNS  = 200
	costFetchNS = 2_000
	costFS2NS   = 5_000
)

// minLearnObs is how many observations a cell needs before its EWMA
// cost is trusted over the structural model.
const minLearnObs = 3

// DefaultAlpha is the EWMA decay applied to every observed statistic,
// the weight of the newest observation: it balances adaptation speed
// against noise, ~10 observations to mostly forget an old regime.
const DefaultAlpha = 0.3

// Counters is a snapshot of the planner's service counters.
type Counters struct {
	// Decisions counts Decide calls, ByMode splits them by chosen mode.
	Decisions int64
	ByMode    [NumModes]int64
	// SharedVarSkips counts decisions where a shared-variable shape
	// forced the codeword filter off.
	SharedVarSkips int64
	// Observations counts retrievals folded into the store.
	Observations int64
}

// Planner owns the statistics store and makes mode decisions from it.
// All methods are safe for concurrent use.
type Planner struct {
	mu       sync.Mutex
	cells    map[cellKey]*[NumModes]modeStats
	counters Counters
}

// New builds an empty planner.
func New() *Planner {
	return &Planner{cells: make(map[cellKey]*[NumModes]modeStats)}
}

// Observe folds one completed retrieval into the store. Degraded or
// faulted retrievals should not be fed here — their costs describe the
// failure ladder, not the mode.
func (p *Planner) Observe(pred string, shape Shape, mode Mode, o Observation) {
	if mode >= NumModes {
		return
	}
	p.mu.Lock()
	p.counters.Observations++
	p.observeLocked(pred, shape, mode, o)
	p.mu.Unlock()
}

// Counters returns the service counters.
func (p *Planner) Counters() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// Decide plans one retrieval: the goal's shape plus the predicate's
// clause geometry select among the four modes by estimated total cost
// (retrieval plus the host's full unification of whatever the mode
// returns). Two structural rules short-circuit the cost race:
//
//   - A shape with a cross-bound variable never runs FS1 — shared
//     variables defeat the codeword filter (§2.1), every clause would
//     survive the scan — so the race is FS2 (whose cross-binding check
//     exists for exactly this) against plain software.
//   - An all-variable shape constrains nothing: every clause truly
//     unifies and any filter hardware is pure overhead, so it is
//     matched in software.
//
// Decisions are deterministic functions of the store state: same
// profile, same inputs, same answer.
func (p *Planner) Decide(pred string, shape Shape, clauses, masked int) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()

	var d Decision
	d.Est, d.Learned = p.estimateLocked(pred, shape, clauses, masked)

	switch {
	case shape.HasShared():
		d.Mode = ModeFS2
		if d.Est[ModeSoftware] < d.Est[ModeFS2] {
			d.Mode = ModeSoftware
		}
		d.Reason = "shared-vars"
		p.counters.SharedVarSkips++
	case len(shape) > 0 && shape.AllVars():
		d.Mode = ModeSoftware
		d.Reason = "all-vars"
	default:
		// Preference order breaks exact ties toward the fuller pipeline.
		d.Mode = ModeFS1FS2
		for _, m := range [...]Mode{ModeFS2, ModeFS1, ModeSoftware} {
			if d.Est[m] < d.Est[d.Mode] {
				d.Mode = m
			}
		}
		d.Reason = "cost-model"
		if d.Learned {
			d.Reason = "learned"
		}
	}
	p.counters.Decisions++
	p.counters.ByMode[d.Mode]++
	return d
}

// estimateLocked prices every mode for (pred, shape): learned EWMA
// simulated cost where a cell has earned trust, the structural funnel
// model everywhere else, plus the downstream cost of host-unifying the
// mode's returned candidates (ghosts included — that is what a leaky
// filter costs).
func (p *Planner) estimateLocked(pred string, shape Shape, clauses, masked int) (est [NumModes]float64, learned bool) {
	n := float64(clauses)
	maskedFrac := 0.0
	if clauses > 0 {
		maskedFrac = float64(masked) / n
	}
	// Selectivity priors: FS1 passes every masked entry plus a small
	// collision tail; FS2 is an order of magnitude sharper; the stacked
	// filter multiplies.
	sel1 := maskedFrac + 0.05
	if sel1 > 1 {
		sel1 = 1
	}
	out := [NumModes]float64{
		ModeSoftware: 0.05,
		ModeFS1:      sel1,
		ModeFS2:      0.10,
		ModeFS1FS2:   sel1 * 0.2,
	}

	var cells [NumModes]modeStats
	if c := p.cells[cellKey{pred, shape}]; c != nil {
		cells = *c
	}
	// Learned selectivities refine the priors as soon as one
	// observation exists; learned costs replace the model only after
	// minLearnObs. FS1 mode returns exactly the codeword scan's
	// survivors, so its output fraction tracks sel1 however sel1 was
	// learned.
	if ms := cells[ModeFS1]; ms.count > 0 {
		sel1 = ms.selFS1
	} else if ms := cells[ModeFS1FS2]; ms.count > 0 {
		sel1 = ms.selFS1
	}
	out[ModeFS1] = sel1
	for _, m := range [...]Mode{ModeSoftware, ModeFS2, ModeFS1FS2} {
		if ms := cells[m]; ms.count > 0 {
			out[m] = ms.selOut
		}
	}

	model := [NumModes]float64{
		ModeSoftware: n * costHostNS,
		ModeFS1:      n*costScanNS + sel1*n*costFetchNS,
		ModeFS2:      n * (costFetchNS + costFS2NS),
		ModeFS1FS2:   n*costScanNS + sel1*n*(costFetchNS+costFS2NS),
	}
	for m := Mode(0); m < NumModes; m++ {
		retrieval := model[m]
		if ms := cells[m]; ms.count >= minLearnObs {
			retrieval = ms.simNS
			learned = true
		}
		est[m] = retrieval + out[m]*n*costHostNS
	}
	return est, learned
}
