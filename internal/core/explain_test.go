package core

import (
	"strconv"
	"testing"

	"clare/internal/parse"
)

// TestExplainSharedVariableGhosts profiles the §2.1 pathology
// married_couple(S,S): FS1 cannot see the shared variable, so its
// survivor set is ghost-heavy, and the profile must say so with
// candidate counts that only shrink down the rungs.
func TestExplainSharedVariableGhosts(t *testing.T) {
	const n, every = 40, 4 // 10 same-name couples
	r := familyRetriever(t, n, every)
	p, err := r.Explain(parse.MustTerm("married_couple(S, S)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats
	if st.TotalClauses != n {
		t.Errorf("total = %d, want %d", st.TotalClauses, n)
	}
	if !(st.TotalClauses >= st.AfterFS1 && st.AfterFS1 >= st.AfterFS2 && st.AfterFS2 >= p.Unified) {
		t.Errorf("candidate counts not monotone: total=%d fs1=%d fs2=%d unified=%d",
			st.TotalClauses, st.AfterFS1, st.AfterFS2, p.Unified)
	}
	if p.Unified != n/every {
		t.Errorf("unified = %d, want the %d same-name couples", p.Unified, n/every)
	}
	if p.GhostFS1 <= 0 {
		t.Errorf("FS1 ghost ratio = %v, want > 0 (shared variable is invisible to the SCW scan)", p.GhostFS1)
	}
	if p.GhostFS2 < 0 || p.GhostFS2 > p.GhostFS1 {
		t.Errorf("FS2 ghost ratio %v outside [0, FS1 ratio %v]", p.GhostFS2, p.GhostFS1)
	}
	if st.FS2RejectsXB == 0 {
		t.Error("no cross-binding rejects counted; S=S mismatches are exactly that")
	}
}

// TestExplainEntriesSchema pins the wire schema: ordered, space-free
// keys and values, counts parseable and consistent with the profile.
func TestExplainEntriesSchema(t *testing.T) {
	r := familyRetriever(t, 30, 3)
	p, err := r.Explain(parse.MustTerm("married_couple(X, Y)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	entries := p.Entries()
	want := []string{"mode", "predicate", "candidates.total", "candidates.after_fs1",
		"candidates.after_fs2", "candidates.unified", "fs1.masked_hits", "fs1.ghost_ratio",
		"fs2.rejects_level", "fs2.rejects_xb", "fs2.ghost_ratio"}
	for i, k := range want {
		if i >= len(entries) || entries[i].Key != k {
			t.Fatalf("entry %d = %v, want key %s (order is wire contract)", i, entries[i], k)
		}
	}
	get := func(key string) string {
		for _, e := range entries {
			if e.Key == key {
				return e.Value
			}
		}
		t.Fatalf("missing entry %s", key)
		return ""
	}
	for _, e := range entries {
		if e.Key == "" || e.Value == "" {
			t.Errorf("empty entry %+v", e)
		}
		for _, s := range []string{e.Key, e.Value} {
			for _, c := range s {
				if c == ' ' || c == '\n' {
					t.Errorf("entry %q %q contains whitespace (breaks the E line)", e.Key, e.Value)
				}
			}
		}
	}
	if u, err := strconv.Atoi(get("candidates.unified")); err != nil || u != p.Unified {
		t.Errorf("candidates.unified = %q, want %d", get("candidates.unified"), p.Unified)
	}
	if get("mode") != "fs1+fs2" || get("predicate") != "married_couple/2" {
		t.Errorf("mode/predicate = %q/%q", get("mode"), get("predicate"))
	}
}

// TestExplainSoftwareMode: a host-only retrieval has no filter rungs, so
// both ghost ratios stay zero while the reference count still lands.
func TestExplainSoftwareMode(t *testing.T) {
	r := familyRetriever(t, 20, 2)
	p, err := r.Explain(parse.MustTerm("married_couple(husband4, X)"), ModeSoftware)
	if err != nil {
		t.Fatal(err)
	}
	if p.GhostFS1 != 0 || p.GhostFS2 != 0 {
		t.Errorf("ghost ratios = %v/%v, want 0/0 for software mode", p.GhostFS1, p.GhostFS2)
	}
	if p.Unified != 1 {
		t.Errorf("unified = %d, want 1", p.Unified)
	}
}

// TestProfileOfCatchesDivergence: native EXPLAIN prices a retrieval by
// replaying it on the sim engine, and refuses one whose candidates the
// replay does not find — here a retrieval with one candidate dropped.
func TestProfileOfCatchesDivergence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	r := buildRetriever(t, cfg, 40, 4)
	rt, err := r.Retrieve(parse.MustTerm("married_couple(S, S)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProfileOf(rt); err != nil {
		t.Fatalf("the untouched retrieval: %v", err)
	}
	if len(rt.Candidates) < 2 {
		t.Fatalf("%d candidates, want at least 2", len(rt.Candidates))
	}
	rt.Candidates = append(rt.Candidates[:1:1], rt.Candidates[2:]...)
	if _, err := r.ProfileOf(rt); err == nil {
		t.Fatal("ProfileOf priced a retrieval with a candidate dropped")
	}
}
