package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The statistics store: per-predicate, per-shape EWMAs of what each
// mode's candidate funnel actually did. Everything here is owned by the
// Planner's mutex; the types are exported only so the snapshot format
// is visible and testable.

// ModeStats is one (predicate, shape, mode) cell.
type ModeStats struct {
	// Count is the lifetime observation count for the cell.
	Count uint64 `json:"count"`
	// SimNS is the EWMA-decayed simulated time a retrieval charged.
	SimNS float64 `json:"sim_ns"`
	// SelFS1 is the EWMA fraction of the clause file surviving the FS1
	// codeword scan (meaningful only for modes that run FS1). SelOut is
	// the EWMA fraction the whole retrieval returned to the caller —
	// the candidate set the host must full-unify, ghosts included.
	SelFS1 float64 `json:"sel_fs1"`
	SelOut float64 `json:"sel_out"`
}

// ShapeStats aggregates one query shape against one predicate.
type ShapeStats struct {
	Count uint64               `json:"count"`
	Modes [NumModes]*ModeStats `json:"modes"`
}

// PredStats is one predicate's entry: its last-seen clause geometry
// plus the per-shape cells.
type PredStats struct {
	Clauses int                   `json:"clauses"`
	Masked  int                   `json:"masked"`
	Shapes  map[Shape]*ShapeStats `json:"shapes"`
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

// snapshot is the on-disk profile. The format is additive: unknown
// fields are ignored on load, so older profiles keep loading as the
// store grows fields.
type snapshot struct {
	Version int                   `json:"version"`
	Alpha   float64               `json:"alpha"`
	Preds   map[string]*PredStats `json:"preds"`
}

const snapshotVersion = 1

// ewma folds x into the decayed value v (first observation adopts x).
func ewma(v, x, alpha float64, first bool) float64 {
	if first {
		return x
	}
	return alpha*x + (1-alpha)*v
}

// observeLocked folds one retrieval into the store. Caller holds p.mu.
func (p *Planner) observeLocked(pred string, shape Shape, mode Mode, o Observation) {
	ps := p.preds[pred]
	if ps == nil {
		ps = &PredStats{Shapes: make(map[Shape]*ShapeStats)}
		p.preds[pred] = ps
	}
	if o.TotalClauses > 0 {
		ps.Clauses = o.TotalClauses
	}
	ss := ps.Shapes[shape]
	if ss == nil {
		ss = &ShapeStats{}
		ps.Shapes[shape] = ss
	}
	ss.Count++
	ms := ss.Modes[mode]
	if ms == nil {
		ms = &ModeStats{}
		ss.Modes[mode] = ms
	}
	first := ms.Count == 0
	ms.Count++
	ms.SimNS = ewma(ms.SimNS, float64(o.Sim.Nanoseconds()), p.alpha, first)
	if o.TotalClauses > 0 {
		n := float64(o.TotalClauses)
		if mode.UsesFS1() {
			ms.SelFS1 = ewma(ms.SelFS1, float64(o.AfterFS1)/n, p.alpha, first)
		}
		ms.SelOut = ewma(ms.SelOut, float64(o.AfterFS2)/n, p.alpha, first)
	}
}

// Save writes the profile snapshot atomically (temp file + rename in
// the destination directory).
func (p *Planner) Save(path string) error {
	p.mu.Lock()
	snap := snapshot{Version: snapshotVersion, Alpha: p.alpha, Preds: p.preds}
	blob, err := json.MarshalIndent(&snap, "", "  ")
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("plan: marshal snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plan-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load replaces the store with a saved profile. A missing file is not
// an error — a fresh server simply starts cold.
func (p *Planner) Load(path string) error {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("plan: %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("plan: %s: unknown snapshot version %d", path, snap.Version)
	}
	p.mu.Lock()
	if snap.Alpha > 0 && snap.Alpha <= 1 {
		p.alpha = snap.Alpha
	}
	p.preds = snap.Preds
	if p.preds == nil {
		p.preds = make(map[string]*PredStats)
	}
	for _, ps := range p.preds {
		if ps.Shapes == nil {
			ps.Shapes = make(map[Shape]*ShapeStats)
		}
	}
	p.mu.Unlock()
	return nil
}

// Predicates reports how many predicates the store holds stats for.
func (p *Planner) Predicates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.preds)
}
