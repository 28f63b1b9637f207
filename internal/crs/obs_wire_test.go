package crs

import (
	"strconv"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/telemetry"
	"clare/internal/workload"
)

// newObsServer builds a server with a flight recorder in the retriever,
// a tracer, and an SLO tracker with a sub-microsecond objective (every
// retrieval burns budget). The slow log is left to individual tests —
// its EXPLAIN re-runs land in the flight ring too and would make record
// counts timing-dependent.
func newObsServer(t *testing.T) (*Server, *telemetry.Tracer) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Tracer = telemetry.NewTracer(16)
	cfg.Flight = telemetry.NewFlightRecorder(64)
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	s.SetFlight(cfg.Flight, "")
	s.SetSLO(telemetry.NewSLOTracker(telemetry.SLO{P99: time.Nanosecond}))
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	return s, cfg.Tracer
}

// TestWireFlight: the FLIGHT verb dumps the retriever's ring over the
// wire — every served retrieval present, funnel counts monotone, and a
// traced retrieval's trace ID resolving against the server's tracer
// (whose trace records the caller's remote context).
func TestWireFlight(t *testing.T) {
	s, tracer := newObsServer(t)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Retrieve("fs1", "married_couple(husband3, X)"); err != nil {
		t.Fatal(err)
	}
	tc := &telemetry.TraceContext{TraceID: 0xbeef, ParentSpan: 1}
	if _, err := c.RetrieveTraced("fs1+fs2", "married_couple(X, Y)", tc); err != nil {
		t.Fatal(err)
	}

	recs, err := c.Flight(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("flight dump holds %d records, want 2", len(recs))
	}
	// The server assigns its own trace ID and records the caller's
	// context as Remote; find the trace joined to our 0xbeef context and
	// demand a flight record carrying its ID.
	var wantID uint64
	for _, tr := range tracer.Last(0) {
		if tr.Remote != nil && tr.Remote.TraceID == 0xbeef {
			wantID = tr.TraceID
		}
	}
	if wantID == 0 {
		t.Fatal("tracer holds no trace joined to the caller's context")
	}
	var traced bool
	for _, r := range recs {
		if r.Predicate != "married_couple/2" {
			t.Errorf("record predicate = %q", r.Predicate)
		}
		if !(r.Total >= r.AfterFS1 && r.AfterFS1 >= r.AfterFS2) {
			t.Errorf("funnel not monotone: %d -> %d -> %d", r.Total, r.AfterFS1, r.AfterFS2)
		}
		if r.WallNS <= 0 {
			t.Errorf("record missing wall time: %+v", r)
		}
		if r.TraceID == wantID {
			traced = true
		}
	}
	if !traced {
		t.Errorf("no flight record carries trace %d: %+v", wantID, recs)
	}

	if recs, err := c.Flight(1); err != nil || len(recs) != 1 {
		t.Errorf("FLIGHT 1 = %d records, err %v", len(recs), err)
	}
}

// TestWireFlightUnarmed: a server without a recorder answers FLIGHT
// with an empty dump, not an error.
func TestWireFlightUnarmed(t *testing.T) {
	s := newServer(t)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs, err := c.Flight(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("unarmed server dumped %d records", len(recs))
	}
}

// TestWireSlowCapture: a retrieval past the threshold re-runs EXPLAIN
// capture-side; the capture lands in the slow log with the full funnel
// profile and comes back over the SLOWLOG verb.
func TestWireSlowCapture(t *testing.T) {
	s, _ := newObsServer(t)
	s.SetSlowLog(telemetry.NewSlowQueryLog(8, time.Millisecond), time.Nanosecond, 0)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tc := &telemetry.TraceContext{TraceID: 0xfeed, ParentSpan: 1}
	if _, err := c.RetrieveTraced("fs1+fs2", "married_couple(S, S)", tc); err != nil {
		t.Fatal(err)
	}
	// The EXPLAIN re-run happens on a background goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for s.SlowLog().Captured() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow capture never landed")
		}
		time.Sleep(time.Millisecond)
	}

	caps, err := c.SlowTail(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 1 {
		t.Fatalf("slow tail holds %d captures, want 1", len(caps))
	}
	capt := caps[0]
	if capt.Predicate != "married_couple/2" || capt.Goal == "" {
		t.Errorf("capture = %+v", capt)
	}
	if capt.WallNS <= 0 || capt.ThresholdNS <= 0 {
		t.Errorf("capture missing timings: wall=%d thr=%d", capt.WallNS, capt.ThresholdNS)
	}
	// The capture carries the server-side trace ID, correlating it with
	// the retrieval's flight record.
	if capt.TraceID == 0 {
		t.Error("capture missing trace ID")
	}
	var correlated bool
	for _, r := range s.Flight().Snapshot(0) {
		if r.TraceID == capt.TraceID {
			correlated = true
		}
	}
	if !correlated {
		t.Errorf("capture trace %d has no matching flight record", capt.TraceID)
	}
	prof := make(map[string]string, len(capt.Profile))
	for _, kv := range capt.Profile {
		prof[kv.Key] = kv.Value
	}
	geti := func(key string) int {
		n, err := strconv.Atoi(prof[key])
		if err != nil {
			t.Fatalf("profile %s = %q, want an int (profile: %v)", key, prof[key], capt.Profile)
		}
		return n
	}
	total, fs1, fs2 := geti("candidates.total"), geti("candidates.after_fs1"), geti("candidates.after_fs2")
	if !(total >= fs1 && fs1 >= fs2) {
		t.Errorf("profile funnel not monotone: %d -> %d -> %d", total, fs1, fs2)
	}

	// STATS surfaces the capture and SLO accounting.
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["slow.captured"] < 1 {
		t.Errorf("slow.captured = %d", kv["slow.captured"])
	}
	if kv["flight.recorded"] < 1 {
		t.Errorf("flight.recorded = %d", kv["flight.recorded"])
	}
	if kv["slo.enabled"] != 1 || kv["slo.requests"] < 1 || kv["slo.slow"] < 1 {
		t.Errorf("slo stats = enabled:%d requests:%d slow:%d",
			kv["slo.enabled"], kv["slo.requests"], kv["slo.slow"])
	}
	if kv["slo.burn.short.milli"] <= 0 {
		t.Errorf("slo.burn.short.milli = %d, want > 0", kv["slo.burn.short.milli"])
	}
}

// TestWireSlowCaptureRateLimit: two consecutive slow retrievals of the
// same predicate inside the gap yield exactly one capture.
func TestWireSlowCaptureRateLimit(t *testing.T) {
	s, _ := newObsServer(t)
	s.SetSlowLog(telemetry.NewSlowQueryLog(8, time.Hour), time.Nanosecond, 0)
	addr := startWire(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Retrieve("fs1", "married_couple(X, Y)"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.SlowLog().Captured() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow capture never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.SlowLog().Captured(); got != 1 {
		t.Errorf("captured = %d, want 1 (rate-limited)", got)
	}
	if got := s.SlowLog().Suppressed(); got != 2 {
		t.Errorf("suppressed = %d, want 2", got)
	}
}
