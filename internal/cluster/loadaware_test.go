package cluster

import (
	"testing"
	"time"
)

// TestCandidatesRankByObservedServiceTime: once the replicas have
// answered, candidate order follows their moving-average service times —
// the declared-second but faster replica ranks first.
func TestCandidatesRankByObservedServiceTime(t *testing.T) {
	r, err := NewRouter(Config{Shards: [][]string{{"a:1", "b:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.groups[0]
	for i := 0; i < 16; i++ {
		g.nodes[0].observe(5 * time.Millisecond)
		g.nodes[1].observe(200 * time.Microsecond)
	}
	cands := g.candidates()
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
	cands := g.candidates()
	if cands[0].addr != "b:1" {
		t.Errorf("candidates[0] = %s, want the idle b:1", cands[0].addr)
	}
}

// TestNodeServiceMovingAverage: the first answer seeds a node's service
// time, each later one moves it an eighth of the way, and an unanswered
// node is priced at servicePrior.
func TestNodeServiceMovingAverage(t *testing.T) {
	var n node
	if got := n.serviceEstimate(); got != servicePrior {
		t.Errorf("unanswered estimate = %v, want the prior %v", got, servicePrior)
	}
	n.observe(800 * time.Microsecond)
	if got := n.serviceEstimate(); got != 800*time.Microsecond {
		t.Errorf("seeded estimate = %v, want 800µs", got)
	}
	n.observe(0)
	if got := n.serviceEstimate(); got != 700*time.Microsecond {
		t.Errorf("after one 0 answer = %v, want 700µs", got)
	}
}
