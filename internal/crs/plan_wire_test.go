package crs

import (
	"net"
	"testing"

	"clare/internal/core"
	"clare/internal/plan"
	"clare/internal/telemetry"
	"clare/internal/workload"
)

// TestWirePlannerStatsAndExplain drives a planner-armed server over the
// wire: auto-mode retrievals must surface the planner's counters under
// the plan.* STATS keys, the configured latency window under
// latency.window, and the per-query decision as plan.* EXPLAIN entries
// — with a shared-variable goal never planned onto an FS1 rung — and in
// the EXPLAIN's flight record, as a RETRIEVE's carries it.
func TestWirePlannerStatsAndExplain(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Planner = plan.New(plan.Config{})
	cfg.Flight = telemetry.NewFlightRecorder(8)
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	s.SetLatencyWindow(128)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Retrieve("auto", "married_couple(S, S)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Retrieve("auto", "married_couple(husband4, X)"); err != nil {
		t.Fatal(err)
	}

	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["plan.enabled"] != 1 {
		t.Errorf("plan.enabled = %d, want 1", kv["plan.enabled"])
	}
	if kv["plan.decisions"] < 2 {
		t.Errorf("plan.decisions = %d, want >= 2", kv["plan.decisions"])
	}
	if kv["plan.sharedvar_skips"] < 1 {
		t.Errorf("plan.sharedvar_skips = %d, want >= 1", kv["plan.sharedvar_skips"])
	}
	if kv["plan.observations"] < 2 {
		t.Errorf("plan.observations = %d, want >= 2 (auto retrievals must feed the cost model)", kv["plan.observations"])
	}
	if kv["latency.window"] != 128 {
		t.Errorf("latency.window = %d, want the configured 128", kv["latency.window"])
	}

	res, err := c.Explain("auto", "married_couple(S, S)")
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]string{}
	for _, e := range res.Entries {
		entries[e.Key] = e.Value
	}
	for _, k := range []string{"plan.mode", "plan.shape", "plan.reason", "plan.learned"} {
		if entries[k] == "" {
			t.Errorf("EXPLAIN missing %s entry (have %v)", k, res.Entries)
		}
	}
	switch entries["plan.mode"] {
	case "fs1", "fs1+fs2":
		t.Errorf("shared-variable goal planned onto %s — the codeword filter is blind to it", entries["plan.mode"])
	}
	recs := cfg.Flight.Snapshot(1)
	if len(recs) != 1 || recs[0].Plan != entries["plan.reason"] || recs[0].Shape != entries["plan.shape"] {
		t.Errorf("EXPLAIN's flight record = %+v, want plan %q shape %q", recs, entries["plan.reason"], entries["plan.shape"])
	}
}

// TestWirePlannerOffKeys: without a planner the STATS surface must
// still be explicit — plan.enabled 0, no decision counters.
func TestWirePlannerOffKeys(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["plan.enabled"] != 0 {
		t.Errorf("plan.enabled = %d, want 0", kv["plan.enabled"])
	}
	if _, ok := kv["plan.decisions"]; ok {
		t.Error("plan.decisions present on a planner-less server")
	}
}
