package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAdminMuxMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clare_retrievals_total", "served", Labels{"mode": "fs2"}).Add(3)
	srv := httptest.NewServer(NewAdminMux(AdminConfig{Registry: reg, Tracer: NewTracer(4)}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(string(body), `clare_retrievals_total{mode="fs2"} 3`) {
		t.Errorf("/metrics body missing series:\n%s", body)
	}
}

func TestAdminMuxTrace(t *testing.T) {
	tracer := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr := tracer.Start("retrieve")
		tr.Root().End()
		tracer.Finish(tr)
	}
	srv := httptest.NewServer(NewAdminMux(AdminConfig{Registry: NewRegistry(), Tracer: tracer}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if got := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; got != 2 {
		t.Errorf("/trace?n=2 returned %d lines:\n%s", got, body)
	}

	if resp, err := http.Get(srv.URL + "/trace?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/trace?n=bogus status = %d, want 400", resp.StatusCode)
		}
	}
}

func TestAdminMuxPprofAndNils(t *testing.T) {
	srv := httptest.NewServer(NewAdminMux(AdminConfig{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/trace", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestAdminMuxFlight(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		f.Record(&FlightRecord{Predicate: "p/1", Mode: "fs1", Total: 30})
	}
	srv := httptest.NewServer(NewAdminMux(AdminConfig{Flight: f}))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	status, body := get("/flight")
	if status != http.StatusOK {
		t.Fatalf("/flight status = %d", status)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 5 {
		t.Fatalf("/flight returned %d lines, want 5:\n%s", len(lines), body)
	}
	var rec FlightRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Predicate != "p/1" {
		t.Errorf("bad flight line (%v): %s", err, lines[0])
	}

	if _, body := get("/flight?n=2"); strings.Count(strings.TrimSpace(body), "\n")+1 != 2 {
		t.Errorf("/flight?n=2 did not truncate:\n%s", body)
	}
	if status, _ := get("/flight?n=bogus"); status != http.StatusBadRequest {
		t.Errorf("/flight?n=bogus status = %d, want 400", status)
	}
}

func TestAdminMuxSLOAndSlowlog(t *testing.T) {
	tr := NewSLOTracker(SLO{P99: time.Millisecond})
	tr.Observe("p/1", time.Second, false)
	sl := NewSlowQueryLog(4, time.Millisecond)
	sl.Add(&SlowCapture{Predicate: "p/1", Goal: "p(X)"})
	srv := httptest.NewServer(NewAdminMux(AdminConfig{SLO: tr, SlowLog: sl}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st SLOStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, body)
	}
	if st.Requests != 1 || st.Slow != 1 {
		t.Errorf("/slo status = %+v", st)
	}

	resp, err = http.Get(srv.URL + "/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var c SlowCapture
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(body))), &c); err != nil || c.Goal != "p(X)" {
		t.Errorf("/slowlog line bad (%v):\n%s", err, body)
	}
}

// The observability endpoints of an unarmed daemon must serve empty
// documents, not crash — every AdminConfig field is optional.
func TestAdminMuxObservabilityNils(t *testing.T) {
	srv := httptest.NewServer(NewAdminMux(AdminConfig{}))
	defer srv.Close()
	for _, path := range []string{"/flight", "/slo", "/slowlog"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

// A dump racing live recording must stay well-formed: every line valid
// JSON, sequences strictly increasing. Run with -race this also proves
// the ring's memory safety.
func TestAdminMuxFlightConcurrentDump(t *testing.T) {
	f := NewFlightRecorder(32)
	srv := httptest.NewServer(NewAdminMux(AdminConfig{Flight: f}))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f.Record(&FlightRecord{Predicate: "p/1", WallNS: int64(i)})
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL + "/flight")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var lastSeq uint64
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if line == "" {
				continue
			}
			var rec FlightRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("torn flight line: %v\n%s", err, line)
			}
			if rec.Seq <= lastSeq {
				t.Fatalf("sequence went backwards: %d after %d", rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
		}
	}
	close(stop)
	wg.Wait()
}
