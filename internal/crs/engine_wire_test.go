package crs

import (
	"strings"
	"testing"

	"clare/internal/core"
	"clare/internal/workload"
)

// newEngineServer builds a family-loaded server over a native retriever,
// the engine crsd serves.
func newEngineServer(t *testing.T) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStatsScanStoreKeys: store.mapped distinguishes mmap-backed stores
// from heap-loaded ones — 0 here, since the server's predicates were
// loaded in memory.
func TestStatsScanStoreKeys(t *testing.T) {
	s := newEngineServer(t)
	c, err := Dial(startWire(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := stats["store.mapped"]; !ok || got != 0 {
		t.Errorf("store.mapped = %d (present %v), want 0", got, ok)
	}
}

// TestWirePlannerOffKeys: the STATS surface of the engine crsd serves
// carries no simulated-board or planner keys — no plan.* and no
// boards/boards.* and no engine.* key.
func TestWirePlannerOffKeys(t *testing.T) {
	s := newEngineServer(t)
	c, err := Dial(startWire(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Retrieve("auto", "married_couple(S, S)"); err != nil {
		t.Fatal(err)
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for k := range kv {
		if strings.HasPrefix(k, "plan.") || strings.HasPrefix(k, "boards") || strings.HasPrefix(k, "engine") {
			t.Errorf("STATS carries %s", k)
		}
	}
}
