package plan

import "time"

// The statistics store: per-(predicate, shape) EWMAs of what each mode's
// candidate funnel actually did. Everything here is owned by the
// Planner's mutex.

// cellKey keys the store: a predicate indicator and a query shape.
type cellKey struct {
	pred  string
	shape Shape
}

// modeStats is one (predicate, shape, mode) cell; count 0 means the mode
// was never observed for the pair.
type modeStats struct {
	// count is the lifetime observation count for the cell.
	count uint64
	// simNS is the EWMA-decayed simulated time a retrieval charged.
	simNS float64
	// selFS1 is the EWMA fraction of the clause file surviving the FS1
	// codeword scan (meaningful only for modes that run FS1). selOut is
	// the EWMA fraction the whole retrieval returned to the caller —
	// the candidate set the host must full-unify, ghosts included.
	selFS1 float64
	selOut float64
}

// Observation is one completed retrieval's funnel, as the core engine
// reports it.
type Observation struct {
	// TotalClauses, AfterFS1, AfterFS2 are the candidate funnel rungs
	// (AfterFS1 equals TotalClauses when FS1 did not run; AfterFS2 is
	// the returned candidate count).
	TotalClauses int
	AfterFS1     int
	AfterFS2     int
	// Sim is the retrieval's simulated time.
	Sim time.Duration
}

// ewma folds x into the decayed value v (first observation adopts x).
func ewma(v, x float64, first bool) float64 {
	if first {
		return x
	}
	return DefaultAlpha*x + (1-DefaultAlpha)*v
}

// observeLocked folds one retrieval into the store. Caller holds p.mu.
func (p *Planner) observeLocked(pred string, shape Shape, mode Mode, o Observation) {
	k := cellKey{pred, shape}
	cells := p.cells[k]
	if cells == nil {
		cells = new([NumModes]modeStats)
		p.cells[k] = cells
	}
	ms := &cells[mode]
	first := ms.count == 0
	ms.count++
	ms.simNS = ewma(ms.simNS, float64(o.Sim.Nanoseconds()), first)
	if o.TotalClauses > 0 {
		n := float64(o.TotalClauses)
		if mode.UsesFS1() {
			ms.selFS1 = ewma(ms.selFS1, float64(o.AfterFS1)/n, first)
		}
		ms.selOut = ewma(ms.selOut, float64(o.AfterFS2)/n, first)
	}
}
