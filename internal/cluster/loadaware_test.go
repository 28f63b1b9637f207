package cluster

import (
	"testing"
	"time"
)

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
