package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/telemetry"
	"clare/internal/term"
)

// testPred is one predicate's worth of facts for a test cluster.
type testPred struct {
	name    string
	clauses []core.ClauseTerm
}

// facts builds n arity-2 ground facts name(e<i>, v<i>).
func facts(name string, n int) testPred {
	out := make([]core.ClauseTerm, n)
	for i := 0; i < n; i++ {
		out[i] = core.ClauseTerm{Head: term.New(name,
			term.Atom(fmt.Sprintf("e%d", i)), term.Atom(fmt.Sprintf("v%d", i)))}
	}
	return testPred{name: name, clauses: out}
}

// indicator is the pred's routing key (all test facts are arity 2).
func (p testPred) indicator() string { return p.name + "/2" }

// startBackend boots one crs.Server on loopback holding preds.
func startBackend(t testing.TB, preds []testPred) (*crs.Server, net.Listener) {
	t.Helper()
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := crs.NewServer(r)
	for _, p := range preds {
		if err := s.Load("test", p.clauses); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })
	return s, l
}

// testCluster is a partitioned set of in-process backends.
type testCluster struct {
	preds []testPred
	srvs  [][]*crs.Server
	lis   [][]net.Listener
	addrs [][]string
}

// startCluster partitions preds with ShardOf (exactly as kbc -shards
// does) and boots `replicas` identical backends per shard group.
func startCluster(t *testing.T, shards, replicas int, preds []testPred) *testCluster {
	t.Helper()
	tc := &testCluster{preds: preds}
	for i := 0; i < shards; i++ {
		var part []testPred
		for _, p := range preds {
			if ShardOf(p.indicator(), shards) == i {
				part = append(part, p)
			}
		}
		var srvs []*crs.Server
		var lis []net.Listener
		var addrs []string
		for j := 0; j < replicas; j++ {
			s, l := startBackend(t, part)
			srvs, lis, addrs = append(srvs, s), append(lis, l), append(addrs, l.Addr().String())
		}
		tc.srvs = append(tc.srvs, srvs)
		tc.lis = append(tc.lis, lis)
		tc.addrs = append(tc.addrs, addrs)
	}
	return tc
}

// kill takes one backend down hard: stop accepting and force-close every
// open connection, leaving pooled router clients pointing at a corpse.
func (tc *testCluster) kill(t *testing.T, shard, replica int) {
	t.Helper()
	tc.lis[shard][replica].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	tc.srvs[shard][replica].Shutdown(ctx) //nolint:errcheck // deadline abort is the point
}

// predOnShard finds a predicate the shard function places on shard s.
func predOnShard(t *testing.T, preds []testPred, shards, s int) testPred {
	t.Helper()
	for _, p := range preds {
		if ShardOf(p.indicator(), shards) == s {
			return p
		}
	}
	t.Fatalf("no test predicate maps to shard %d of %d", s, shards)
	return testPred{}
}

func testPreds() []testPred {
	out := make([]testPred, 8)
	for i := range out {
		out[i] = facts(fmt.Sprintf("route%d", i), 4+i)
	}
	return out
}

func newTestRouter(t testing.TB, addrs [][]string, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Shards:      addrs,
		WireTimeout: 2 * time.Second,
		CallTimeout: 2 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestRoutedMatchesDirect: every predicate retrieved through the router
// returns exactly what its owning backend returns directly.
func TestRoutedMatchesDirect(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 3, 1, preds)
	r := newTestRouter(t, tc.addrs, nil)
	for _, p := range preds {
		goal := p.name + "(X, Y)"
		got, err := r.Retrieve("auto", goal)
		if err != nil {
			t.Fatalf("routed retrieve %q: %v", goal, err)
		}
		shard := ShardOf(p.indicator(), 3)
		c, err := crs.Dial(tc.addrs[shard][0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Retrieve("auto", goal)
		c.Close()
		if err != nil {
			t.Fatalf("direct retrieve %q: %v", goal, err)
		}
		if len(got.Clauses) != len(p.clauses) {
			t.Errorf("%q: routed %d clauses, want %d", goal, len(got.Clauses), len(p.clauses))
		}
		if fmt.Sprint(got.Clauses) != fmt.Sprint(want.Clauses) {
			t.Errorf("%q: routed clauses diverge from direct:\n  got  %v\n  want %v",
				goal, got.Clauses, want.Clauses)
		}
	}
	if n := r.requests.Load(); n != int64(len(preds)) {
		t.Errorf("requests = %d, want %d", n, len(preds))
	}
	if n := r.fanouts.Load(); n != 0 {
		t.Errorf("fanouts = %d, want 0 (every predicate routed to its home shard)", n)
	}
}

// TestSoftwareModeFanout: mode=software scatters to every group; a
// predicate still comes back whole (it lives on one shard) and the STATS
// trailer is the merged sum.
func TestSoftwareModeFanout(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 3, 1, preds)
	r := newTestRouter(t, tc.addrs, nil)
	p := preds[0]
	res, err := r.Retrieve("software", p.name+"(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != len(p.clauses) {
		t.Errorf("fanout returned %d clauses, want %d", len(res.Clauses), len(p.clauses))
	}
	if !strings.HasPrefix(res.Stats, "STATS mode=software") {
		t.Errorf("merged stats trailer = %q", res.Stats)
	}
	if n := r.fanouts.Load(); n != 1 {
		t.Errorf("fanouts = %d, want 1", n)
	}
}

// TestUnknownPredicateFanoutFallback: when the owning shard has never
// heard of a predicate, the router falls back to a full fan-out — data
// loaded off its home shard stays reachable.
func TestUnknownPredicateFanoutFallback(t *testing.T) {
	stray := facts("strayaway", 5)
	home := ShardOf(stray.indicator(), 2)
	off := 1 - home
	// Build two backends by hand: the stray predicate lives only on the
	// non-home shard.
	var addrs [][]string
	for i := 0; i < 2; i++ {
		var part []testPred
		if i == off {
			part = []testPred{stray}
		}
		_, l := startBackend(t, part)
		addrs = append(addrs, []string{l.Addr().String()})
	}
	r := newTestRouter(t, addrs, nil)
	res, err := r.Retrieve("auto", "strayaway(X, Y)")
	if err != nil {
		t.Fatalf("fallback retrieve: %v", err)
	}
	if len(res.Clauses) != len(stray.clauses) {
		t.Errorf("fallback returned %d clauses, want %d", len(res.Clauses), len(stray.clauses))
	}
	if n := r.fanouts.Load(); n != 1 {
		t.Errorf("fanouts = %d, want 1", n)
	}
}

// TestUnknownEverywhere: a predicate no shard holds surfaces the
// single-node unknown-predicate rejection shape.
func TestUnknownEverywhere(t *testing.T) {
	tc := startCluster(t, 2, 1, testPreds())
	r := newTestRouter(t, tc.addrs, nil)
	_, err := r.Retrieve("auto", "never_loaded(X, Y)")
	var se *crs.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "unknown predicate never_loaded/2") {
		t.Errorf("retrieve of missing predicate = %v, want unknown-predicate ServerError", err)
	}
}

// TestFailoverToReplica: with one replica dead — pooled connections and
// all — retrievals keep succeeding through the survivor and the failover
// counter records it; a replica dying under concurrent retrievals costs
// no client an error.
func TestFailoverToReplica(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 2, preds)
	reg := telemetry.NewRegistry()
	r := newTestRouter(t, tc.addrs, func(cfg *Config) { cfg.Metrics = reg })
	p := predOnShard(t, preds, 2, 0)
	goal := p.name + "(X, Y)"

	// Warm the pool through replica 0, then kill it. Pin it at the head
	// of the candidate order first: its warm-request latency sample can
	// exceed the idle replica's prior (routine under -race), and the
	// load-aware ranking would then sidestep the dead node instead of
	// failing over from it.
	if _, err := r.Retrieve("auto", goal); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		r.nodeLat.Observe(tc.addrs[0][0], 100*time.Microsecond)
	}
	tc.kill(t, 0, 0)

	res, err := r.Retrieve("auto", goal)
	if err != nil {
		t.Fatalf("retrieve after replica death: %v", err)
	}
	if len(res.Clauses) != len(p.clauses) {
		t.Errorf("failover returned %d clauses, want %d", len(res.Clauses), len(p.clauses))
	}
	if r.Failovers() == 0 {
		t.Error("failover counter did not move")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `clare_cluster_failovers_total{shard="0"} 1`) {
		t.Errorf("exposition missing shard-0 failover:\n%s", sb.String())
	}

	// The same death under load: shard 1's first replica dies while four
	// clients retrieve from both shards, and none of them sees an error.
	const clients, perClient = 4, 40
	other := predOnShard(t, preds, 2, 1).name + "(X, Y)"
	var started atomic.Int64
	underway := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if started.Add(1) == clients*perClient/4 {
					close(underway)
				}
				g := goal
				if (c+i)%2 == 0 {
					g = other
				}
				if _, err := r.Retrieve("auto", g); err != nil {
					t.Errorf("client %d, retrieval %d: error visible during replica death: %v", c, i, err)
				}
			}
		}(c)
	}
	<-underway
	tc.kill(t, 1, 0)
	wg.Wait()
}

// TestTripAndReadmit: a dead sole replica trips out of rotation after
// TripThreshold consecutive failures; once it is back, the last-ditch
// path reaches it and a clean call re-admits it.
func TestTripAndReadmit(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 1, 1, preds)
	addr := tc.addrs[0][0]
	r := newTestRouter(t, tc.addrs, func(cfg *Config) {
		cfg.TripThreshold = 2
		cfg.ProbePeriod = time.Hour // cooling must not expire during the test
	})
	goal := preds[0].name + "(X, Y)"
	tc.kill(t, 0, 0)

	for i := 0; i < 2; i++ {
		if _, err := r.Retrieve("auto", goal); err == nil {
			t.Fatal("retrieve against a dead cluster should fail")
		}
	}
	if n := r.trips.Load(); n != 1 {
		t.Fatalf("trips = %d, want 1", n)
	}

	// Resurrect the backend on the same address; the node is tripped and
	// cooling, so only the last-ditch rung can reach it.
	reborn, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := crs.NewServer(reborn)
	for _, p := range preds {
		if err := s.Load("test", p.clauses); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go s.Serve(l)

	res, err := r.Retrieve("auto", goal)
	if err != nil {
		t.Fatalf("retrieve after resurrection: %v", err)
	}
	if len(res.Clauses) != len(preds[0].clauses) {
		t.Errorf("got %d clauses, want %d", len(res.Clauses), len(preds[0].clauses))
	}
	if n := r.readmits.Load(); n != 1 {
		t.Errorf("readmits = %d, want 1", n)
	}
}

// TestCandidatesOrder: healthy replicas come first in declared order,
// cooled-off tripped replicas follow on probation, and a fully tripped,
// still-cooling group falls back to everyone.
func TestCandidatesOrder(t *testing.T) {
	mk := func() *group {
		return &group{nodes: []*node{
			{addr: "a"}, {addr: "b"}, {addr: "c"},
		}}
	}
	order := func(g *group) string {
		var names []string
		for _, n := range g.candidates(nil) {
			names = append(names, n.addr)
		}
		return strings.Join(names, "")
	}

	g := mk()
	if got := order(g); got != "abc" {
		t.Errorf("all healthy: %q, want abc", got)
	}

	g = mk()
	g.nodes[0].tripped = true
	g.nodes[0].retryAt = time.Now().Add(time.Hour)
	if got := order(g); got != "bc" {
		t.Errorf("a tripped+cooling: %q, want bc", got)
	}

	g = mk()
	g.nodes[0].tripped = true
	g.nodes[0].retryAt = time.Now().Add(-time.Second)
	if got := order(g); got != "bca" {
		t.Errorf("a on probation: %q, want bca", got)
	}

	g = mk()
	for _, n := range g.nodes {
		n.tripped = true
		n.retryAt = time.Now().Add(time.Hour)
	}
	if got := order(g); got != "abc" {
		t.Errorf("all cooling (last ditch): %q, want abc", got)
	}
}

// TestStatsAggregation: Stats sums backend counters across groups and
// overlays the router's own cluster.* keys.
func TestStatsAggregation(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 2, preds)
	r := newTestRouter(t, tc.addrs, nil)
	// Pin each group's replica 0 at the head of the candidate order:
	// served.* counters arrive from exactly one replica per group, so
	// the requests and the stats poll must land on the same node even
	// when -race skews the observed service times.
	for i := 0; i < 64; i++ {
		r.nodeLat.Observe(tc.addrs[0][0], 100*time.Microsecond)
		r.nodeLat.Observe(tc.addrs[1][0], 100*time.Microsecond)
	}
	for _, p := range preds[:3] {
		if _, err := r.Retrieve("auto", p.name+"(X, Y)"); err != nil {
			t.Fatal(err)
		}
	}
	kv, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["cluster.shards"] != 2 || kv["cluster.replicas"] != 4 {
		t.Errorf("topology keys wrong: shards=%d replicas=%d", kv["cluster.shards"], kv["cluster.replicas"])
	}
	if kv["cluster.requests"] != 3 {
		t.Errorf("cluster.requests = %d, want 3", kv["cluster.requests"])
	}
	// Backend-origin keys must be present and summed: the three auto
	// retrievals are spread across the two groups, and each group's
	// served.* counters arrive from exactly one replica.
	served := int64(0)
	for k, v := range kv {
		if strings.HasPrefix(k, "served.") {
			served += v
		}
	}
	if served != 3 {
		t.Errorf("summed served.* = %d, want 3 (stats %v)", served, kv)
	}
	// The store key propagates across the cluster: these in-memory
	// backends report store.mapped = 0.
	if mapped, ok := kv["store.mapped"]; !ok || mapped != 0 {
		t.Errorf("store.mapped = %d (present %v), want 0 for heap-backed shards", mapped, ok)
	}
}

// TestRetrieveTrace: a routed retrieval leaves a span tree with the
// predicate on the root and the shard on the child.
func TestRetrieveTrace(t *testing.T) {
	preds := testPreds()
	tc := startCluster(t, 2, 1, preds)
	tracer := telemetry.NewTracer(4)
	r := newTestRouter(t, tc.addrs, func(cfg *Config) { cfg.Tracer = tracer })
	p := preds[0]
	if _, err := r.Retrieve("auto", p.name+"(X, Y)"); err != nil {
		t.Fatal(err)
	}
	if len(tracer.Last(1)) == 0 {
		t.Fatal("no trace recorded")
	}
	var sb strings.Builder
	if err := tracer.WriteJSON(&sb, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"route"`, `"shard"`, p.indicator()} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
