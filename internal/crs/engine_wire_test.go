package crs

import (
	"strings"
	"testing"

	"clare/internal/core"
	"clare/internal/workload"
)

// newEngineServer builds a family-loaded server over a retriever running
// the given engine.
func newEngineServer(t *testing.T, engine core.Engine) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = engine
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
	s := newEngineServer(t, core.EngineNative)
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

// TestStatsEngineKey: the engine.native STATS key reports which engine
// the server runs — 0 for the simulation, 1 for the native engine — and
// a native server still answers retrievals over the wire.
func TestStatsEngineKey(t *testing.T) {
	for _, tc := range []struct {
		engine core.Engine
		want   int64
	}{
		{core.EngineSim, 0},
		{core.EngineNative, 1},
	} {
		s := newEngineServer(t, tc.engine)
		c, err := Dial(startWire(t, s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Retrieve("fs1+fs2", "married_couple(husband4, X)"); err != nil {
			t.Errorf("engine %v: retrieve: %v", tc.engine, err)
		}
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		got, ok := stats["engine.native"]
		if !ok {
			t.Errorf("engine %v: STATS missing key engine.native", tc.engine)
		} else if got != tc.want {
			t.Errorf("engine %v: engine.native = %d, want %d", tc.engine, got, tc.want)
		}
	}
}

// TestWirePlannerOffKeys: the STATS surface of the engine crsd serves
// carries no simulated-board or planner keys — no plan.* and no
// boards/boards.* — while it does name the engine (engine.native) and
// the configured latency window.
func TestWirePlannerOffKeys(t *testing.T) {
	s := newEngineServer(t, core.EngineNative)
	s.SetLatencyWindow(128)
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
		if strings.HasPrefix(k, "plan.") || strings.HasPrefix(k, "boards") {
			t.Errorf("STATS carries %s", k)
		}
	}
	if kv["engine.native"] != 1 {
		t.Errorf("engine.native = %d, want 1", kv["engine.native"])
	}
	if kv["latency.window"] != 128 {
		t.Errorf("latency.window = %d, want the configured 128", kv["latency.window"])
	}
}
