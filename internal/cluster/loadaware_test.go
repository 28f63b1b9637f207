package cluster

import (
	"net"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
)

// TestProbeDiscoversBackendCapability arms a connection against a
// native-engine backend: the one-shot STATS probe must latch the
// engine kind, and the service-time prior must drop accordingly.
func TestProbeDiscoversBackendCapability(t *testing.T) {
	cfg := core.DefaultConfig()
	var err error
	if cfg.Engine, err = core.ParseEngine("native"); err != nil {
		t.Fatal(err)
	}
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := crs.NewServer(r)
	p := facts("cap", 4)
	if err := s.Load("test", p.clauses); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })

	n := &node{addr: l.Addr().String()}
	rcfg := Config{WireTimeout: 2 * time.Second, PoolSize: 1}
	c, pooled, err := n.get(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if pooled {
		t.Fatal("fresh node returned a pooled connection")
	}
	if !n.probed.Load() {
		t.Error("probe did not latch")
	}
	if !n.native.Load() {
		t.Error("native engine not discovered through STATS probe")
	}
	if est := n.serviceEstimate(nil); est >= simServicePrior {
		t.Errorf("native service estimate %v not under the sim prior %v", est, simServicePrior)
	}
}

// TestProbeSimBackendKeepsSimPrior: a simulation backend probes as
// non-native and keeps the slower prior.
func TestProbeSimBackendKeepsSimPrior(t *testing.T) {
	p := facts("simcap", 4)
	_, l := startBackend(t, []testPred{p})
	n := &node{addr: l.Addr().String()}
	c, _, err := n.get(Config{WireTimeout: 2 * time.Second, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n.native.Load() {
		t.Error("sim backend discovered as native")
	}
	if est := n.serviceEstimate(nil); est != simServicePrior {
		t.Errorf("sim service estimate = %v, want the sim prior %v", est, simServicePrior)
	}
}

// TestCandidatesRankByObservedServiceTime: once the router holds
// latency samples, candidate order follows observed P90 — the
// declared-second but faster replica ranks first.
func TestCandidatesRankByObservedServiceTime(t *testing.T) {
	r, err := NewRouter(Config{Shards: [][]string{{"a:1", "b:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.groups[0]
	for i := 0; i < 16; i++ {
		r.nodeLat.Observe("a:1", 5*time.Millisecond)
		r.nodeLat.Observe("b:1", 200*time.Microsecond)
	}
	cands := g.candidates(r)
	if cands[0].addr != "b:1" {
		t.Errorf("candidates[0] = %s, want the faster b:1", cands[0].addr)
	}
}

// TestCandidatesOutstandingPenalty: equal service times, but one
// replica is loaded with in-flight requests — the idle one must rank
// first.
func TestCandidatesOutstandingPenalty(t *testing.T) {
	r, err := NewRouter(Config{Shards: [][]string{{"a:1", "b:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.groups[0]
	g.nodes[0].outstanding.Store(3)
	cands := g.candidates(r)
	if cands[0].addr != "b:1" {
		t.Errorf("candidates[0] = %s, want the idle b:1", cands[0].addr)
	}
}
