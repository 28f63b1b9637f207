package crs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"clare/internal/core"
	"clare/internal/telemetry"
	"clare/internal/workload"
)

// newObsServer builds a server with a flight recorder in the retriever
// and a tracer.
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
	fam := workload.Family{Couples: 30, SameEvery: 3}
	if err := s.Load("family", fam.Clauses()); err != nil {
		t.Fatal(err)
	}
	return s, cfg.Tracer
}

// TestWireFlight: the FLIGHT verb dumps the retriever's ring over the
// wire — every served retrieval present, funnel counts monotone, a
// traced retrieval's trace ID resolving against the server's tracer
// (whose trace records the caller's remote context) and the caller's own
// trace ID on the record — and /top counts the same retrievals.
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
			if r.CallerTraceID != 0xbeef {
				t.Errorf("traced record caller = %#x, want 0xbeef", r.CallerTraceID)
			}
		} else if r.CallerTraceID != 0 {
			t.Errorf("untraced record carries caller %#x", r.CallerTraceID)
		}
	}
	if !traced {
		t.Errorf("no flight record carries trace %d: %+v", wantID, recs)
	}

	if recs, err := c.Flight(1); err != nil || len(recs) != 1 {
		t.Errorf("FLIGHT 1 = %d records, err %v", len(recs), err)
	}

	rec := httptest.NewRecorder()
	telemetry.NewAdminMux(telemetry.AdminConfig{Flight: s.Flight()}).ServeHTTP(rec, httptest.NewRequest("GET", "/top?n=5", nil))
	var top []telemetry.TopEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("bad /top payload %q: %v", rec.Body.String(), err)
	}
	if len(top) != 1 || top[0].Key != "married_couple/2" || top[0].Count != 2 || top[0].Max <= 0 {
		t.Errorf("/top = %+v, want married_couple/2 with count 2", top)
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
