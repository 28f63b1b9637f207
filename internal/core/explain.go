package core

import (
	"fmt"
	"strconv"
	"time"

	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/unify"
)

// This file implements the per-retrieval EXPLAIN profile: the paper's
// stage-by-stage cost argument (§2.1 false drops, §2.2 partial-test
// precision) turned into an inspectable artifact. An Explain call runs a
// real retrieval, then ProfileOf pushes the candidates through host full
// unification to count the true unifiers — the reference the filter
// rungs are judged against:
//
//	rung 0  clause file        TotalClauses
//	rung 1  FS1 (SCW scan)     AfterFS1   (ghosts = survivors that
//	                                        don't truly unify)
//	rung 2  FS2 (partial test) AfterFS2   (split into level-3 and
//	                                        cross-binding rejects)
//	rung 3  host unification   Unified
//
// Counts are monotonically non-increasing down the rungs; each ghost
// ratio is the fraction of a rung's survivors the reference rejects.

// Profile is one retrieval's filter-cost profile.
type Profile struct {
	Mode SearchMode
	// Predicate is the goal's indicator as the retrieval rendered it.
	Predicate string
	Stats     StageStats
	// Unified is the number of candidates whose heads truly unify with
	// the goal (host full unification with occurs-check off, the Prolog
	// default).
	Unified int
	// GhostFS1 is the fraction of FS1 survivors that do not truly unify;
	// GhostFS2 the same for FS2 survivors. Zero when the rung did not run
	// or had no survivors.
	GhostFS1 float64
	GhostFS2 float64
	// HostUnifyWall is the host time the reference unification pass cost.
	HostUnifyWall time.Duration
	// Wall is the retrieval's own host time, as its record measured it
	// (the reference pass is HostUnifyWall).
	Wall time.Duration
	// Trace is the retrieval's span tree (nil without a Tracer).
	Trace *telemetry.Trace
}

// Explain runs one retrieval in the given mode and derives its profile.
func (r *Retriever) Explain(goal term.Term, mode SearchMode) (*Profile, error) {
	return r.ExplainTraced(goal, mode, nil)
}

// ExplainTraced is Explain joining a remote caller's trace, the way
// RetrieveTraced joins one.
func (r *Retriever) ExplainTraced(goal term.Term, mode SearchMode, tc *telemetry.TraceContext) (*Profile, error) {
	rt, err := r.RetrieveTraced(goal, mode, tc)
	if err != nil {
		return nil, err
	}
	return r.ProfileOf(rt)
}

// ProfileOf derives the EXPLAIN profile of a finished retrieval: the
// reference pass — full unification of the goal against every candidate
// head, on the host. This is ground truth, not a filter; it is what the
// CRS's caller would do with the candidates anyway. It reads the
// retrieval's own fields and each candidate's Clause words — written once,
// whatever writes the compiled file has seen since — so it needs no lock
// the retrieval held.
func (r *Retriever) ProfileOf(rt *Retrieval) (*Profile, error) {
	p := &Profile{Mode: rt.Mode, Predicate: rt.Predicate, Stats: rt.Stats, Wall: rt.wall.total, Trace: rt.trace}
	unifyStart := time.Now()
	heads, _, err := rt.DecodeCandidates()
	if err != nil {
		return nil, err
	}
	for _, h := range heads {
		if unify.Unifiable(rt.Goal, h) {
			p.Unified++
		}
	}
	p.HostUnifyWall = time.Since(unifyStart)

	usedFS1 := rt.Mode == ModeFS1 || rt.Mode == ModeFS1FS2
	usedFS2 := rt.Mode == ModeFS2 || rt.Mode == ModeFS1FS2
	if rt.Stats.Degraded == "host" {
		usedFS1, usedFS2 = false, false
	} else if rt.Stats.Degraded == "fs2" {
		usedFS1 = false
	}
	if usedFS1 && rt.Stats.AfterFS1 > 0 {
		p.GhostFS1 = 1 - float64(p.Unified)/float64(rt.Stats.AfterFS1)
	}
	if usedFS2 && rt.Stats.AfterFS2 > 0 {
		p.GhostFS2 = 1 - float64(p.Unified)/float64(rt.Stats.AfterFS2)
		r.met.ghostFS2.Set(p.GhostFS2)
	}
	return p, nil
}

// ExplainEntry is one key/value of the rendered profile. Values are
// strings so counts, ratios, durations, and flags share one wire form
// (the EXPLAIN reply's "E <key> <value>" lines).
type ExplainEntry struct {
	Key   string
	Value string
}

// Entries renders the profile as an ordered key/value list — the order
// is the filter pipeline's, so a renderer can print it as-is. This is
// the EXPLAIN wire schema; adding keys is backward compatible, renaming
// or reordering existing ones is not.
func (p *Profile) Entries() []ExplainEntry {
	st := &p.Stats
	dur := func(d time.Duration) string { return d.String() }
	ratio := func(f float64) string { return strconv.FormatFloat(f, 'f', 4, 64) }
	out := []ExplainEntry{
		{"mode", p.Mode.String()},
		{"predicate", p.Predicate},
		{"candidates.total", fmt.Sprint(st.TotalClauses)},
		{"candidates.after_fs1", fmt.Sprint(st.AfterFS1)},
		{"candidates.after_fs2", fmt.Sprint(st.AfterFS2)},
		{"candidates.unified", fmt.Sprint(p.Unified)},
		{"fs1.masked_hits", fmt.Sprint(st.MaskedHits)},
		{"fs1.ghost_ratio", ratio(p.GhostFS1)},
		{"fs2.rejects_level", fmt.Sprint(st.FS2RejectsLevel)},
		{"fs2.rejects_xb", fmt.Sprint(st.FS2RejectsXB)},
		{"fs2.ghost_ratio", ratio(p.GhostFS2)},
		{"sim.fs1_scan", dur(st.FS1Scan)},
		{"sim.disk_fetch", dur(st.DiskFetch)},
		{"sim.fs2_match", dur(st.FS2Match)},
		{"sim.host_match", dur(st.HostMatch)},
		{"sim.total", dur(st.Total)},
		{"wall.retrieval", dur(p.Wall)},
		{"wall.host_unify", dur(p.HostUnifyWall)},
		{"chunks", fmt.Sprint(st.Chunks)},
		{"cache_hit", strconv.FormatBool(st.QueryCacheHit)},
	}
	if st.Overflowed {
		out = append(out, ExplainEntry{"overflowed", "true"})
	}
	if st.Degraded != "" {
		out = append(out, ExplainEntry{"degraded", st.Degraded})
	}
	if st.Retries > 0 {
		out = append(out, ExplainEntry{"retries", fmt.Sprint(st.Retries)})
	}
	if st.Faults > 0 {
		out = append(out, ExplainEntry{"faults", fmt.Sprint(st.Faults)})
	}
	return out
}
