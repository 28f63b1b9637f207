package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/fault"
	"clare/internal/telemetry"
	"clare/internal/wal"
	"clare/internal/wire"
)

// Router defaults.
const (
	// DefaultWireTimeout bounds each backend dial and wire read/write.
	// Much tighter than crs.DefaultTimeout: a slow replica should trip
	// the failover ladder, not stall the client for half a minute.
	DefaultWireTimeout = 5 * time.Second
	// DefaultCallTimeout is the per-shard request budget (the per-call
	// override handed to crs.Client.RetrieveWithTimeout).
	DefaultCallTimeout = 2 * time.Second
	// DefaultTripThreshold trips a backend out of rotation after this
	// many consecutive failed calls.
	DefaultTripThreshold = 3
	// DefaultProbePeriod is how long a tripped backend cools off before
	// a probationary re-admission.
	DefaultProbePeriod = 2 * time.Second
	// DefaultPoolSize is how many idle connections each backend keeps.
	DefaultPoolSize = 8
	// DefaultMaxLag is how many log records a replica may trail its
	// primary before it is marked stale and demoted in candidate order.
	DefaultMaxLag = 1024
	// DefaultShipInterval is the idle log-shipping period per replica
	// (Notify wakes a shipper early after every routed write).
	DefaultShipInterval = 500 * time.Millisecond
	// DefaultHedgeFloor is the minimum hedge budget: a duplicate request
	// never fires earlier than this, so cold predicates and fast
	// backends do not hedge on noise.
	DefaultHedgeFloor = 5 * time.Millisecond
)

// Service-time priors used to score a replica before the router holds
// latency samples for it: the native vectorized engine answers about an
// order of magnitude faster than the cycle-accurate simulation. Learned
// from each backend's STATS (engine.native) at pool-arm time.
const (
	simServicePrior    = time.Millisecond
	nativeServicePrior = 200 * time.Microsecond
)

// Config parameterises a Router.
type Config struct {
	// Shards holds one replica-address list per shard group; Shards[i]
	// are the backends holding shard i's slice of the knowledge base.
	Shards [][]string
	// WireTimeout bounds each backend dial and wire operation
	// (0 means DefaultWireTimeout).
	WireTimeout time.Duration
	// CallTimeout is the per-request budget against one backend — the
	// failover ladder moves on when it expires (0 means
	// DefaultCallTimeout; negative disables the per-call override).
	CallTimeout time.Duration
	// TripThreshold is how many consecutive failures trip a backend out
	// of rotation (0 means DefaultTripThreshold).
	TripThreshold int
	// ProbePeriod is a tripped backend's cool-off before probationary
	// re-admission (0 means DefaultProbePeriod).
	ProbePeriod time.Duration
	// PoolSize bounds the idle connections kept per backend (0 means
	// DefaultPoolSize).
	PoolSize int
	// MaxLag is how many log records a replica may trail its primary
	// before it is marked stale and demoted in the retrieval candidate
	// order (0 means DefaultMaxLag).
	MaxLag uint64
	// ShipInterval is the idle log-shipping period per replica (0 means
	// DefaultShipInterval).
	ShipInterval time.Duration
	// Hedge arms request hedging on routed reads (RETRIEVE and EXPLAIN
	// take one path): when a group's best replica has not answered within
	// the predicate's P99 budget, the runner-up gets a duplicate request
	// and the first answer wins (the loser is cancelled).
	Hedge bool
	// HedgeFloor is the minimum hedge budget (0 means DefaultHedgeFloor).
	// Only meaningful with Hedge.
	HedgeFloor time.Duration
	// LatencyWindow sizes the router's per-predicate and per-node
	// latency sample windows (0 means telemetry.DefaultLatencyWindow).
	LatencyWindow int
	// Faults, when non-nil, lets the shippers probe the wal.ship fault
	// site (keyed by replica address) — the chaos hook for replication.
	Faults *fault.Injector
	// Metrics, when non-nil, receives the router counters
	// (clare_cluster_*). Nil disables metrics.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one span tree per routed retrieval.
	Tracer *telemetry.Tracer
	// Flight, when non-nil, receives one compact record per routed read,
	// served or failed (predicate, routing decision, merged candidate
	// funnel, wall time, hedge flag, error) — the router's own black box,
	// independent of the per-backend recorders. Nil disables recording.
	Flight *telemetry.FlightRecorder
	// SLO, when non-nil, tracks the router's own burn rate over routed
	// reads (end-to-end wall time, as a client saw it). Nil disables
	// tracking.
	SLO *telemetry.SLOTracker
}

// errUnknownPredicate marks a backend's definitive "unknown predicate"
// reply: the node is healthy, the data just is not there. It triggers
// the fan-out fallback instead of the failover ladder.
var errUnknownPredicate = errors.New("cluster: predicate unknown on routed shard")

// isUnknownPredicate recognises the crs server's unknown-predicate ERR.
func isUnknownPredicate(se *crs.ServerError) bool {
	return strings.Contains(se.Msg, "unknown predicate")
}

// node is one CRS backend: an address, a small pool of idle protocol
// clients, and board-pool-style health bookkeeping at the node level —
// consecutive failures trip it out of rotation, a cool-off later it is
// re-admitted on probation (one further failure re-trips it, one clean
// call clears it). Mirrors internal/core's boardUnit, one level up.
type node struct {
	addr  string
	shard int

	mu       sync.Mutex
	idle     []*crs.Client
	failures int
	tripped  bool
	retryAt  time.Time

	// Replication watermarks, maintained by the node's shipper (zero
	// and never set on a primary or a single-node group).
	lag   atomic.Uint64
	stale atomic.Bool

	// Load-aware selection state: calls currently in flight against the
	// node, plus the capability its backend reported through STATS the
	// first time a connection was armed (probed latches the one-time
	// probe).
	outstanding atomic.Int64
	probed      atomic.Bool
	native      atomic.Bool
}

// group is one shard's replica set; nodes[0] is the primary (see
// repl.go), shippers stream its log to nodes[1:].
type group struct {
	shard    int
	nodes    []*node
	shippers []*wal.Shipper
}

// Router owns the shard map and the per-backend connection pools, and
// serves retrievals by scatter-gather: a goal's predicate indicator
// routes to exactly one shard group (rendezvous hashing), while
// unknown-predicate and mode=software queries fan out to every group.
// Within a group the router walks the replicas healthy-first and fails
// over on transport errors, timeouts, and server rejections; results
// merge in shard order, which preserves per-predicate clause order
// because a predicate lives whole on one shard.
//
// Router is safe for concurrent use; each in-flight request leases its
// own backend connection.
type Router struct {
	cfg    Config
	groups []*group
	met    *routerMetrics
	tracer *telemetry.Tracer
	lat    *telemetry.LatencyTracker

	// nodeLat windows per-backend service times (keyed by address) for
	// load-aware replica scoring; lat windows per-predicate wall times
	// for the hedge budget.
	nodeLat *telemetry.LatencyTracker

	// Service counters (also surfaced through STATS aggregation, so
	// they exist even without a metrics registry).
	requests  atomic.Int64
	fanouts   atomic.Int64
	failovers atomic.Int64
	trips     atomic.Int64
	readmits  atomic.Int64
	writes    atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	// replOnce guards StartReplication (see repl.go).
	replOnce sync.Once
}

// NewRouter validates the shard map and builds the router. No backend
// is dialed yet: connections are established lazily per request, so a
// router can boot before (or outlive) its backends.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.WireTimeout <= 0 {
		cfg.WireTimeout = DefaultWireTimeout
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.TripThreshold <= 0 {
		cfg.TripThreshold = DefaultTripThreshold
	}
	if cfg.ProbePeriod <= 0 {
		cfg.ProbePeriod = DefaultProbePeriod
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = DefaultMaxLag
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = DefaultShipInterval
	}
	r := &Router{
		cfg:     cfg,
		met:     newRouterMetrics(cfg.Metrics, len(cfg.Shards)),
		tracer:  cfg.Tracer,
		lat:     telemetry.NewLatencyTracker(cfg.LatencyWindow),
		nodeLat: telemetry.NewLatencyTracker(cfg.LatencyWindow),
	}
	for i, replicas := range cfg.Shards {
		if len(replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		g := &group{shard: i}
		for _, addr := range replicas {
			if addr == "" {
				return nil, fmt.Errorf("cluster: shard %d has an empty replica address", i)
			}
			g.nodes = append(g.nodes, &node{addr: addr, shard: i})
		}
		r.groups = append(r.groups, g)
	}
	return r, nil
}

// Shards reports the shard-group count.
func (r *Router) Shards() int { return len(r.groups) }

// Latency exposes the per-predicate latency tracker (for the admin
// mux's /top endpoint).
func (r *Router) Latency() *telemetry.LatencyTracker { return r.lat }

// Replicas reports the total backend count across all groups.
func (r *Router) Replicas() int {
	n := 0
	for _, g := range r.groups {
		n += len(g.nodes)
	}
	return n
}

// Close stops the log shippers and drops every pooled backend
// connection.
func (r *Router) Close() {
	for _, g := range r.groups {
		for _, sh := range g.shippers {
			sh.Close()
		}
	}
	for _, g := range r.groups {
		for _, n := range g.nodes {
			n.mu.Lock()
			idle := n.idle
			n.idle = nil
			n.mu.Unlock()
			for _, c := range idle {
				c.Close()
			}
		}
	}
}

// get leases a protocol client for the node: an idle pooled connection
// when one exists, a fresh dial otherwise. Pooled clients have their
// own transparent retry disabled — failover policy belongs to the
// router, which wants to move to a replica, not hammer the same node.
// The first fresh dial ever armed also probes the backend's STATS for
// its service-time capability (engine.native); the probe is one-shot per
// node and best-effort.
func (n *node) get(cfg Config) (*crs.Client, bool, error) {
	n.mu.Lock()
	if k := len(n.idle); k > 0 {
		c := n.idle[k-1]
		n.idle = n.idle[:k-1]
		n.mu.Unlock()
		return c, true, nil
	}
	n.mu.Unlock()
	c, err := crs.DialTimeout(n.addr, cfg.WireTimeout)
	if err != nil {
		return nil, false, err
	}
	c.MaxRetries = -1
	if n.probed.CompareAndSwap(false, true) {
		if m, perr := c.StatsWithTimeout(cfg.WireTimeout); perr == nil {
			n.native.Store(m["engine.native"] == 1)
		} else {
			// The probe consumed the connection's health; hand the caller
			// a clean dial and let the real call decide the node's fate.
			c.Close()
			c, err = crs.DialTimeout(n.addr, cfg.WireTimeout)
			if err != nil {
				return nil, false, err
			}
			c.MaxRetries = -1
		}
	}
	return c, false, nil
}

// put returns a healthy client to the node's idle pool.
func (n *node) put(c *crs.Client, cfg Config) {
	n.mu.Lock()
	if len(n.idle) < cfg.PoolSize {
		n.idle = append(n.idle, c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	c.Close()
}

// discard closes a client whose connection failed and drops every other
// pooled connection to the node — they share its fate.
func (n *node) discard(c *crs.Client) {
	c.Close()
	n.mu.Lock()
	idle := n.idle
	n.idle = nil
	n.mu.Unlock()
	for _, ic := range idle {
		ic.Close()
	}
}

// strike records a failed call. Consecutive failures at the trip
// threshold take the node out of rotation until ProbePeriod elapses.
func (n *node) strike(r *Router) {
	n.mu.Lock()
	n.failures++
	if !n.tripped && n.failures >= r.cfg.TripThreshold {
		n.tripped = true
		n.retryAt = time.Now().Add(r.cfg.ProbePeriod)
		n.mu.Unlock()
		r.trips.Add(1)
		r.met.trips.Inc()
		r.met.tripped.Add(1)
		return
	}
	if n.tripped {
		// A failed probation call re-trips immediately.
		n.retryAt = time.Now().Add(r.cfg.ProbePeriod)
	}
	n.mu.Unlock()
}

// clear records a successful call, resetting the consecutive-failure
// count and completing a probationary re-admission.
func (n *node) clear(r *Router) {
	n.mu.Lock()
	n.failures = 0
	readmitted := n.tripped
	n.tripped = false
	n.mu.Unlock()
	if readmitted {
		r.readmits.Add(1)
		r.met.readmits.Inc()
		r.met.tripped.Add(-1)
	}
}

// serviceEstimate prices one request against the node: the router's
// observed per-node P90 when it holds samples, a capability-derived
// prior otherwise. r may be nil (tests); the prior then depends only on
// the probe state.
func (n *node) serviceEstimate(r *Router) time.Duration {
	if r != nil {
		if p90, ok := r.nodeLat.Quantile(n.addr, 0.90); ok && p90 > 0 {
			return p90
		}
	}
	if n.native.Load() {
		return nativeServicePrior
	}
	return simServicePrior
}

// score is the node's expected queueing cost for one more request:
// service estimate scaled by the requests already in flight against it.
func (n *node) score(r *Router) int64 {
	return (n.outstanding.Load() + 1) * int64(n.serviceEstimate(r))
}

// candidates orders the group's replicas for one request: fresh healthy
// nodes first, then tripped nodes whose cool-off has elapsed
// (probation), then healthy-but-stale replicas — a replica whose
// replication lag exceeds the staleness bound serves bounded-staleness
// answers, so it ranks below a probationary node that might be fully
// caught up. Healthy nodes are ranked by expected queueing cost
// (outstanding load × observed-or-prior service time); the sort is
// stable, so unscored equals keep their declared order. When every node
// is tripped and still cooling, all are returned anyway — the router
// has no host-only rung below it, so a last-ditch attempt beats a
// guaranteed error.
func (g *group) candidates(r *Router) []*node {
	now := time.Now()
	healthy := make([]*node, 0, len(g.nodes))
	var probation, stale []*node
	for _, n := range g.nodes {
		n.mu.Lock()
		tripped, retryAt := n.tripped, n.retryAt
		n.mu.Unlock()
		switch {
		case !tripped && n.stale.Load():
			stale = append(stale, n)
		case !tripped:
			healthy = append(healthy, n)
		case now.After(retryAt) || now.Equal(retryAt):
			probation = append(probation, n)
		}
	}
	if len(healthy) > 1 {
		scores := make(map[*node]int64, len(healthy))
		for _, n := range healthy {
			scores[n] = n.score(r)
		}
		sort.SliceStable(healthy, func(i, j int) bool {
			return scores[healthy[i]] < scores[healthy[j]]
		})
	}
	out := append(append(healthy, probation...), stale...)
	if len(out) == 0 {
		return g.nodes
	}
	return out
}

// errHedgeAborted marks a hedged attempt cancelled because the other
// arm answered first. It never strikes node health — the node did
// nothing wrong, it just lost the race.
var errHedgeAborted = errors.New("cluster: hedged attempt cancelled")

// hedgeArm tracks one hedged attempt's in-flight client so the losing
// arm can be cancelled: closing the connection unblocks its pending
// read, the only cancellation the text protocol offers. A nil receiver
// means "not hedged" — set always succeeds, finish reports not-aborted.
type hedgeArm struct {
	mu      sync.Mutex
	c       *crs.Client
	aborted bool
}

// set registers the arm's active client; false when the arm was already
// cancelled (the caller must close the client and give up).
func (a *hedgeArm) set(c *crs.Client) bool {
	if a == nil {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.aborted {
		return false
	}
	a.c = c
	return true
}

// finish deregisters the client after its call returned; true when the
// arm was cancelled mid-call (the connection is then already closed and
// must not be pooled).
func (a *hedgeArm) finish() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.c = nil
	return a.aborted
}

// abort cancels the arm: any registered in-flight connection is severed
// (failing its pending read) and any future set is refused. Abort, not
// Close — a QUIT handshake would wait out the very reply being
// abandoned, stalling the winning arm's return.
func (a *hedgeArm) abort() {
	a.mu.Lock()
	c := a.c
	a.c = nil
	a.aborted = true
	a.mu.Unlock()
	if c != nil {
		c.Sever() //nolint:errcheck // the connection is being abandoned
	}
}

// callNode runs one request against one backend, tracking the node's
// in-flight count and feeding its service-time window. A transport
// failure on a pooled (possibly stale) connection is retried once on a
// fresh dial before it counts against the node.
func callNode[T any](r *Router, n *node, op func(c *crs.Client) (T, error)) (T, error) {
	return callNodeArm(r, n, nil, op)
}

// callNodeArm is callNode registered against a hedge arm (nil for
// unhedged calls).
func callNodeArm[T any](r *Router, n *node, arm *hedgeArm, op func(c *crs.Client) (T, error)) (T, error) {
	n.outstanding.Add(1)
	defer n.outstanding.Add(-1)
	start := time.Now()
	res, err := callNodeConn(r, n, arm, op)
	var se *crs.ServerError
	if err == nil || errors.As(err, &se) {
		// The node answered, so this is a service-time sample; transport
		// failures and cancelled hedge arms are not.
		r.nodeLat.Observe(n.addr, time.Since(start))
	}
	return res, err
}

func callNodeConn[T any](r *Router, n *node, arm *hedgeArm, op func(c *crs.Client) (T, error)) (T, error) {
	var zero T
	attempt := func(c *crs.Client, pooled bool) (res T, err error, redial bool) {
		if !arm.set(c) {
			c.Sever() //nolint:errcheck // the arm already lost the race
			return zero, errHedgeAborted, false
		}
		res, err = op(c)
		if arm.finish() {
			// The other arm won mid-call: the connection was severed under
			// us and must not be pooled.
			c.Sever() //nolint:errcheck // already severed by the winner
			return zero, errHedgeAborted, false
		}
		if err == nil {
			n.put(c, r.cfg)
			return res, nil, false
		}
		var se *crs.ServerError
		if errors.As(err, &se) {
			// The server answered: the connection is still good.
			n.put(c, r.cfg)
			return zero, err, false
		}
		n.discard(c)
		// A pooled connection may simply have outlived the backend's
		// previous life; one fresh dial decides.
		return zero, err, pooled
	}
	c, pooled, err := n.get(r.cfg)
	if err != nil {
		return zero, err
	}
	res, err, redial := attempt(c, pooled)
	if redial {
		if c2, _, err2 := n.get(r.cfg); err2 == nil {
			res, err, _ = attempt(c2, false)
		}
	}
	return res, err
}

// callGroup walks the group's failover ladder: replicas in candidate
// order, failing over on timeouts, transport errors, and server
// rejections. An unknown-predicate reply is definitive (the healthy
// node just does not hold the data) and returns errUnknownPredicate
// without a failover. The last error is returned when every replica
// fails.
//
// When tr is non-nil, every attempt gets its own "net" child span under
// span — failed attempts keep their error attr, so a failover retry is
// visible in the stitched trace as one dead net span followed by a live
// one. op receives the attempt's net span so it can thread the trace
// context to the backend and graft the returned subtree under it.
func callGroup[T any](r *Router, g *group, tr *telemetry.Trace, span *telemetry.Span, op func(c *crs.Client, netSpan *telemetry.Span) (T, error)) (T, error) {
	return callLadder(r, g, g.candidates(r), 0, tr, span, op)
}

// callLadder is callGroup's loop over an explicit candidate list
// starting at index first (so the hedged path can resume the ladder
// past the two arms it already spent).
func callLadder[T any](r *Router, g *group, cands []*node, first int, tr *telemetry.Trace, span *telemetry.Span, op func(c *crs.Client, netSpan *telemetry.Span) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := first; attempt < len(cands); attempt++ {
		n := cands[attempt]
		if attempt > 0 {
			r.failovers.Add(1)
			r.met.failovers[g.shard].Inc()
		}
		netSpan := tr.Span(span, "net")
		if netSpan != nil {
			netSpan.SetAttr("addr", n.addr)
			netSpan.SetAttr("attempt", fmt.Sprint(attempt))
		}
		res, err := callNode(r, n, func(c *crs.Client) (T, error) { return op(c, netSpan) })
		if err == nil {
			n.clear(r)
			netSpan.End()
			if span != nil {
				span.SetAttr("addr", n.addr)
				if attempt > 0 {
					span.SetAttr("failovers", fmt.Sprint(attempt))
				}
			}
			return res, nil
		}
		if netSpan != nil {
			netSpan.SetAttr("error", err.Error())
			netSpan.End()
		}
		var se *crs.ServerError
		if errors.As(err, &se) {
			if isUnknownPredicate(se) {
				n.clear(r)
				return zero, errUnknownPredicate
			}
			// A rejection (e.g. "server shutting down") fails over, but
			// only drain-style rejections say anything about node
			// health; a request the whole cluster would reject must not
			// trip every replica.
			if strings.Contains(se.Msg, "shutting down") {
				n.strike(r)
			}
			lastErr = err
			continue
		}
		n.strike(r)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: shard %d has no reachable replica", g.shard)
	}
	return zero, lastErr
}

// hedgeBudget is one predicate's duplicate-request trigger: its
// observed P99 across routed calls, floored so cold predicates and
// sub-millisecond backends do not hedge on noise.
func (r *Router) hedgeBudget(pred string) time.Duration {
	floor := r.cfg.HedgeFloor
	if floor <= 0 {
		floor = DefaultHedgeFloor
	}
	if p99, ok := r.lat.Quantile(pred, 0.99); ok && p99 > floor {
		return p99
	}
	return floor
}

// callGroupHedged is callGroup with request hedging: the group's
// best-scored replica gets the request, and when it has not answered
// within the predicate's hedge budget the runner-up gets a duplicate —
// the first answer wins and the loser's connection is closed to cancel
// it. An arm failing before the budget fires the hedge immediately, and
// when both arms fail the remaining replicas run the ordinary failover
// ladder, so hedging never weakens failover. Falls through to the plain
// ladder when hedging is off or the group has fewer than two live
// candidates. hedgedOut, when non-nil, is set the moment a duplicate
// fires so the caller's flight record can carry the hedge flag.
func callGroupHedged[T any](r *Router, g *group, pred string, tr *telemetry.Trace, span *telemetry.Span, hedgedOut *atomic.Bool, op func(c *crs.Client, netSpan *telemetry.Span) (T, error)) (T, error) {
	cands := g.candidates(r)
	if !r.cfg.Hedge || len(cands) < 2 {
		return callLadder(r, g, cands, 0, tr, span, op)
	}
	var zero T
	type armResult struct {
		res T
		err error
		idx int
	}
	done := make(chan armResult, 2)
	arms := [2]*hedgeArm{new(hedgeArm), new(hedgeArm)}
	launch := func(idx int) {
		n := cands[idx]
		go func() {
			netSpan := tr.Span(span, "net")
			if netSpan != nil {
				netSpan.SetAttr("addr", n.addr)
				if idx == 1 {
					netSpan.SetAttr("hedge", "true")
				}
			}
			res, err := callNodeArm(r, n, arms[idx], func(c *crs.Client) (T, error) { return op(c, netSpan) })
			if netSpan != nil {
				if err != nil {
					netSpan.SetAttr("error", err.Error())
				}
				netSpan.End()
			}
			done <- armResult{res, err, idx}
		}()
	}
	launch(0)
	timer := time.NewTimer(r.hedgeBudget(pred))
	defer timer.Stop()
	hedged := false
	fire := func() bool {
		if hedged {
			return false
		}
		hedged = true
		if hedgedOut != nil {
			hedgedOut.Store(true)
		}
		r.hedges.Add(1)
		r.met.hedges.Inc()
		launch(1)
		return true
	}
	var lastErr error
	for pending := 1; pending > 0; {
		select {
		case <-timer.C:
			if fire() {
				pending++
			}
		case d := <-done:
			pending--
			if errors.Is(d.err, errHedgeAborted) {
				continue
			}
			n := cands[d.idx]
			if d.err == nil {
				n.clear(r)
				arms[1-d.idx].abort()
				if d.idx == 1 {
					r.hedgeWins.Add(1)
					r.met.hedgeWins.Inc()
				}
				if span != nil {
					span.SetAttr("addr", n.addr)
					if d.idx == 1 {
						span.SetAttr("hedge_won", "true")
					}
				}
				return d.res, nil
			}
			var se *crs.ServerError
			if errors.As(d.err, &se) {
				if isUnknownPredicate(se) {
					// Definitive: the healthy replica just does not hold
					// the predicate. No point racing the other arm.
					n.clear(r)
					arms[1-d.idx].abort()
					return zero, errUnknownPredicate
				}
				if strings.Contains(se.Msg, "shutting down") {
					n.strike(r)
				}
			} else {
				n.strike(r)
			}
			lastErr = d.err
			// The arm died before the budget expired: hedge immediately
			// rather than waiting out the timer.
			if fire() {
				pending++
			}
		}
	}
	// Both hedge arms failed; finish on the remaining replicas.
	if len(cands) > 2 {
		return callLadder(r, g, cands, 2, tr, span, op)
	}
	return zero, lastErr
}

// remoteCtx builds the trace context a backend call should carry: the
// router's trace joined at the attempt's net span. Nil (untraced call)
// keeps the wire request header-free — old-server compatible.
func remoteCtx(tr *telemetry.Trace, netSpan *telemetry.Span) *telemetry.TraceContext {
	if tr == nil || netSpan == nil {
		return nil
	}
	return &telemetry.TraceContext{TraceID: tr.TraceID, ParentSpan: netSpan.ID}
}

// verb is what distinguishes the routed read verbs, RETRIEVE and EXPLAIN:
// the backend call, where the reply keeps its span tree, how fanned-out
// replies merge and where the candidate funnel is read from. Everything
// else — home shard, fan-out, failover, hedging, tracing, recording — is
// route's, once.
type verb[T any] struct {
	explain bool
	call    func(c *crs.Client, mode, goal string, tc *telemetry.TraceContext, d time.Duration) (T, error)
	spans   func(res T) *[]telemetry.WireSpan
	merge   func(parts []T, mode string) T
	funnel  func(res T) wire.Funnel
}

var retrieveVerb = verb[*crs.RetrieveResult]{
	call:  (*crs.Client).RetrieveTracedWithTimeout,
	spans: func(res *crs.RetrieveResult) *[]telemetry.WireSpan { return &res.Spans },
	// Shard-order merging keeps per-predicate clause order intact: the
	// partitioned build places each predicate whole on one shard, so its
	// clauses arrive from a single group already in user order.
	merge: func(parts []*crs.RetrieveResult, mode string) *crs.RetrieveResult {
		merged := &crs.RetrieveResult{}
		bodies := make([]string, len(parts))
		for i, p := range parts {
			merged.Clauses = append(merged.Clauses, p.Clauses...)
			bodies[i] = p.Body
			merged.Stats = mergeStatsLines(merged.Stats, p.Stats, mode)
		}
		merged.Body = strings.Join(bodies, "")
		return merged
	},
	funnel: func(res *crs.RetrieveResult) wire.Funnel { return wire.ParseFunnel(res.Stats) },
}

var explainVerb = verb[*crs.ExplainResult]{
	explain: true,
	call:    (*crs.Client).ExplainTracedWithTimeout,
	spans:   func(res *crs.ExplainResult) *[]telemetry.WireSpan { return &res.Spans },
	merge:   func(parts []*crs.ExplainResult, _ string) *crs.ExplainResult { return mergeExplain(parts) },
	funnel: func(res *crs.ExplainResult) wire.Funnel {
		geti := func(key string) int64 {
			n, _ := strconv.ParseInt(res.Get(key), 10, 64)
			return n
		}
		return wire.Funnel{Total: geti("candidates.total"), FS1: geti("candidates.after_fs1"), FS2: geti("candidates.after_fs2")}
	},
}

// Retrieve routes one retrieval. mode and goal are in wire form (mode
// word, Edinburgh goal without the final '.'). The predicate indicator
// routes the call to its shard group; mode=software and goals whose
// owning shard does not know the predicate fan out to every group, with
// per-group unknown-predicate replies merged as empty contributions.
func (r *Router) Retrieve(mode, goal string) (*crs.RetrieveResult, error) {
	return r.RetrieveTraced(mode, goal, nil)
}

// RetrieveTraced is Retrieve joining a remote caller's trace context.
// The router threads the context down to each backend attempt and grafts
// every returned span subtree under the attempt's net span, so the
// result's Spans field (populated only when tc is non-nil) holds one
// stitched cross-process tree: route → shard → net → backend pipeline.
func (r *Router) RetrieveTraced(mode, goal string, tc *telemetry.TraceContext) (*crs.RetrieveResult, error) {
	return route(r, &retrieveVerb, mode, goal, tc)
}

// Explain routes one EXPLAIN (filter-cost profile) call the way
// Retrieve routes a retrieval: home shard first, full fan-out when the
// owning shard does not know the predicate or mode is software.
func (r *Router) Explain(mode, goal string) (*crs.ExplainResult, error) {
	return r.ExplainTraced(mode, goal, nil)
}

// ExplainTraced is Explain joining a remote caller's trace context, the
// way RetrieveTraced joins one.
func (r *Router) ExplainTraced(mode, goal string, tc *telemetry.TraceContext) (*crs.ExplainResult, error) {
	return route(r, &explainVerb, mode, goal, tc)
}

// route is the one path a routed read takes, whatever its verb.
func route[T any](r *Router, v *verb[T], mode, goal string, tc *telemetry.TraceContext) (T, error) {
	var zero T
	start := time.Now()
	r.requests.Add(1)
	pred, err := GoalIndicator(goal)
	if err != nil {
		r.met.errors.Inc()
		return zero, err
	}
	tr := r.tracer.StartAt("route", tc, start)
	root := tr.Root()
	op := func(c *crs.Client, netSpan *telemetry.Span) (T, error) {
		res, err := v.call(c, mode, goal, remoteCtx(tr, netSpan), r.cfg.CallTimeout)
		if err == nil {
			tr.Graft(netSpan, *v.spans(res))
		}
		return res, err
	}

	var hedged atomic.Bool
	var res T
	plan, homed := "fanout", false
	if mode != "software" {
		g := r.groups[ShardOf(pred, len(r.groups))]
		res, err = callShard(r, v, g, pred, tr, root, &hedged, op)
		// An unknown-predicate reply means the owning shard has never
		// heard of the predicate (the KB may not have been partitioned
		// with our shard function, or the clauses were asserted
		// elsewhere): ask everyone.
		if homed = !errors.Is(err, errUnknownPredicate); homed {
			plan = "shard=" + strconv.Itoa(g.shard)
		}
	}
	if !homed {
		res, err = fanout(r, v, mode, pred, tr, root, &hedged, op)
	}

	var fn wire.Funnel
	if err == nil && (tr != nil || r.cfg.Flight != nil) {
		fn = v.funnel(res)
	}
	r.observeRouted(routed{pred: pred, mode: mode, plan: plan, explain: v.explain, start: start,
		trace: tr, hedged: hedged.Load(), funnel: fn, err: err})
	if err != nil {
		return zero, err
	}
	// The reply carries the stitched tree only for a caller that sent a
	// trace context; the grafted backend subtrees never leak out bare.
	*v.spans(res) = nil
	if tc != nil {
		*v.spans(res) = tr.Wire()
	}
	return res, nil
}

// callShard runs op against one shard group under its own "shard" span.
// Span creation and grafting are goroutine-safe on a Trace, so fan-out
// workers each open (and own) theirs.
func callShard[T any](r *Router, v *verb[T], g *group, pred string, tr *telemetry.Trace, root *telemetry.Span,
	hedged *atomic.Bool, op func(c *crs.Client, netSpan *telemetry.Span) (T, error)) (T, error) {
	sp := tr.Span(root, "shard")
	if sp != nil {
		sp.SetAttr("shard", strconv.Itoa(g.shard))
	}
	res, err := callGroupHedged(r, g, pred, tr, sp, hedged, op)
	if err == nil {
		r.met.requests[g.shard].Inc()
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("candidates", strconv.FormatInt(v.funnel(res).FS2, 10))
		}
		sp.End()
	}
	return res, err
}

// fanout scatters the call to every shard group concurrently and gathers
// the replies in shard order. A group that does not know the predicate
// contributes nothing; when no group knows it, the unknown-predicate
// rejection is surfaced in the single-node ERR shape.
func fanout[T any](r *Router, v *verb[T], mode, pred string, tr *telemetry.Trace, root *telemetry.Span,
	hedged *atomic.Bool, op func(c *crs.Client, netSpan *telemetry.Span) (T, error)) (T, error) {
	var zero T
	r.fanouts.Add(1)
	r.met.fanouts.Inc()
	results := make([]T, len(r.groups))
	errs := make([]error, len(r.groups))
	var wg sync.WaitGroup
	for i, g := range r.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			results[i], errs[i] = callShard(r, v, g, pred, tr, root, hedged, op)
		}(i, g)
	}
	wg.Wait()

	var answered []T
	var firstErr error
	for i := range r.groups {
		switch {
		case errs[i] == nil:
			answered = append(answered, results[i])
		case errors.Is(errs[i], errUnknownPredicate):
			// Healthy group, no data: an empty contribution.
		case firstErr == nil:
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		// Partial scatter results would silently drop clauses; a cluster
		// read is all-or-nothing.
		return zero, firstErr
	}
	if len(answered) == 0 {
		return zero, &crs.ServerError{Msg: "crs: unknown predicate " + pred}
	}
	return v.merge(answered, mode), nil
}

// routed is the record of one routed call: what observeRouted derives
// every surface from.
type routed struct {
	pred, mode string
	plan       string // "shard=N" or "fanout"
	explain    bool
	start      time.Time
	trace      *telemetry.Trace
	hedged     bool
	funnel     wire.Funnel // merged candidate funnel; zero when the call failed
	err        error
}

// observeRouted is the one place a routed call is recorded. One reading
// of the clock feeds the latency histogram, the per-predicate latency
// window (the hedge budget), the SLO tracker (end-to-end wall time, as a
// client saw it), the flight ring and the trace root. Every surface is
// nil-safe, so an unarmed router pays nil checks here.
func (r *Router) observeRouted(c routed) {
	wall := time.Since(c.start)
	r.lat.Observe(c.pred, wall)
	r.cfg.SLO.Observe(c.pred, wall, c.err != nil)
	if c.err != nil {
		r.met.errors.Inc()
	} else {
		r.met.latency.ObserveDuration(wall)
	}
	if root := c.trace.Root(); root != nil {
		root.Wall = wall
		root.SetAttr("predicate", c.pred)
		root.SetAttr("mode", c.mode)
		root.SetAttr("plan", c.plan)
		if c.explain {
			root.SetAttr("explain", "true")
		}
		if c.err != nil {
			root.SetAttr("error", c.err.Error())
		} else {
			root.SetAttr("candidates", strconv.FormatInt(c.funnel.FS2, 10))
		}
		r.tracer.Finish(c.trace)
	}
	if f := r.cfg.Flight; f != nil {
		rec := &telemetry.FlightRecord{
			TS:        c.start.UnixNano(),
			Predicate: c.pred,
			Mode:      c.mode,
			Plan:      c.plan,
			Total:     c.funnel.Total,
			AfterFS1:  c.funnel.FS1,
			AfterFS2:  c.funnel.FS2,
			WallNS:    int64(wall),
			Hedged:    c.hedged,
		}
		if c.trace != nil {
			rec.TraceID = c.trace.TraceID
		}
		if c.err != nil {
			// A failed route still lands in the black box: the funnel is
			// zero and the plan says which path died.
			rec.Err = c.err.Error()
		}
		f.Record(rec)
	}
}

// mergeExplain folds fanned-out per-shard profiles into one: integer
// values sum, durations take the max (scattered shards run concurrently,
// so the critical path is the cost), booleans OR, and anything else
// keeps the first shard's rendering. The ghost ratios are then
// recomputed from the merged candidate counts so they stay consistent
// with what they summarize.
func mergeExplain(results []*crs.ExplainResult) *crs.ExplainResult {
	if len(results) == 1 {
		return results[0]
	}
	var order []string
	vals := make(map[string]string)
	for _, res := range results {
		for _, e := range res.Entries {
			old, seen := vals[e.Key]
			if !seen {
				order = append(order, e.Key)
				vals[e.Key] = e.Value
				continue
			}
			vals[e.Key] = mergeExplainValue(old, e.Value)
		}
	}
	geti := func(k string) (int64, bool) {
		n, err := strconv.ParseInt(vals[k], 10, 64)
		return n, err == nil
	}
	if unified, ok := geti("candidates.unified"); ok {
		ratio := func(after int64) string {
			return strconv.FormatFloat(1-float64(unified)/float64(after), 'f', 4, 64)
		}
		if a1, ok := geti("candidates.after_fs1"); ok && a1 > 0 {
			vals["fs1.ghost_ratio"] = ratio(a1)
		}
		if a2, ok := geti("candidates.after_fs2"); ok && a2 > 0 {
			vals["fs2.ghost_ratio"] = ratio(a2)
		}
	}
	merged := &crs.ExplainResult{}
	for _, k := range order {
		merged.Entries = append(merged.Entries, core.ExplainEntry{Key: k, Value: vals[k]})
	}
	return merged
}

// mergeExplainValue merges one key's two renderings by dynamic type:
// ints sum, durations max, bools OR, strings keep-first.
func mergeExplainValue(a, b string) string {
	if x, err := strconv.ParseInt(a, 10, 64); err == nil {
		if y, err := strconv.ParseInt(b, 10, 64); err == nil {
			return strconv.FormatInt(x+y, 10)
		}
	}
	if x, err := time.ParseDuration(a); err == nil {
		if y, err := time.ParseDuration(b); err == nil {
			if y > x {
				return b
			}
			return a
		}
	}
	if x, err := strconv.ParseBool(a); err == nil {
		if y, err := strconv.ParseBool(b); err == nil {
			return strconv.FormatBool(x || y)
		}
	}
	return a
}

// mergeStatsLines folds one backend's "STATS mode=… total=… fs1=… fs2=…"
// trailer into the running merged trailer by summing the stage counts.
func mergeStatsLines(acc, next, mode string) string {
	if acc == "" {
		return next
	}
	a, b := wire.ParseFunnel(acc), wire.ParseFunnel(next)
	return wire.Funnel{Mode: mode, Total: a.Total + b.Total, FS1: a.FS1 + b.FS1, FS2: a.FS2 + b.FS2}.String()
}

// Stats gathers every shard group's service counters (one reachable
// replica per group, failover ladder applied) and sums them per key,
// then overlays the router's own cluster.* counters. Numeric summing
// makes served.*, faults, retries etc. cluster-wide aggregates; gauges
// like boards.free become chassis totals across the cluster.
func (r *Router) Stats() (map[string]int64, error) {
	out := make(map[string]int64)
	groupStats := make([]map[string]int64, 0, len(r.groups))
	for _, g := range r.groups {
		m, err := callGroup[map[string]int64](r, g, nil, nil, func(c *crs.Client, _ *telemetry.Span) (map[string]int64, error) {
			return c.StatsWithTimeout(r.cfg.CallTimeout)
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d stats: %w", g.shard, err)
		}
		groupStats = append(groupStats, m)
		for k, v := range m {
			out[k] += v
		}
	}
	var tripped, staleN, shipped, lagMax int64
	for _, g := range r.groups {
		for _, n := range g.nodes {
			n.mu.Lock()
			if n.tripped {
				tripped++
			}
			n.mu.Unlock()
			if n.stale.Load() {
				staleN++
			}
			if l := int64(n.lag.Load()); l > lagMax {
				lagMax = l
			}
		}
		for _, sh := range g.shippers {
			shipped += sh.Shipped()
		}
	}
	out["cluster.shards"] = int64(len(r.groups))
	out["cluster.replicas"] = int64(r.Replicas())
	out["cluster.requests"] = r.requests.Load()
	out["cluster.fanouts"] = r.fanouts.Load()
	out["cluster.failovers"] = r.failovers.Load()
	out["cluster.nodes.tripped"] = tripped
	out["cluster.trips"] = r.trips.Load()
	out["cluster.readmits"] = r.readmits.Load()
	out["cluster.writes"] = r.writes.Load()
	hedgeEnabled := int64(0)
	if r.cfg.Hedge {
		hedgeEnabled = 1
	}
	out["cluster.hedge.enabled"] = hedgeEnabled
	out["cluster.hedges"] = r.hedges.Load()
	out["cluster.hedge.wins"] = r.hedgeWins.Load()
	out["cluster.latency.window"] = int64(r.lat.Window())
	out["cluster.wal.shipped"] = shipped
	out["cluster.wal.lag.max"] = lagMax
	out["cluster.wal.stale"] = staleN
	r.overlaySLO(out, groupStats)
	if f := r.cfg.Flight; f != nil {
		out["cluster.flight.recorded"] = int64(f.Recorded())
	}
	return out, nil
}

// overlaySLO repairs the slo.* keys that plain per-key summing mangles
// and overlays the cluster-wide burn rate. Objective and flag keys
// (slo.enabled, slo.p99.us, slo.err.permille, slo.breach.active) become
// per-group maxima — an objective is a target, not a quantity — while
// the burn rates are recomputed from the summed window counts against
// that objective, so the cluster-wide burn weights every backend by its
// own traffic instead of averaging milli-burns across idle and loaded
// shards alike. No-op when no backend reports an armed SLO.
func (r *Router) overlaySLO(out map[string]int64, groupStats []map[string]int64) {
	enabled := false
	for _, k := range []string{"slo.enabled", "slo.p99.us", "slo.err.permille", "slo.breach.active"} {
		var best int64
		seen := false
		for _, m := range groupStats {
			if v, ok := m[k]; ok {
				seen = true
				if v > best {
					best = v
				}
			}
		}
		if seen {
			out[k] = best
			if k == "slo.enabled" && best > 0 {
				enabled = true
			}
		}
	}
	if !enabled {
		return
	}
	slo := telemetry.SLO{
		P99:     time.Duration(out["slo.p99.us"]) * time.Microsecond,
		ErrRate: float64(out["slo.err.permille"]) / 1000,
	}
	short := telemetry.BurnRate(slo,
		out["slo.window.short.requests"], out["slo.window.short.slow"], out["slo.window.short.errors"])
	long := telemetry.BurnRate(slo,
		out["slo.window.long.requests"], out["slo.window.long.slow"], out["slo.window.long.errors"])
	out["slo.burn.short.milli"] = int64(short * 1000)
	out["slo.burn.long.milli"] = int64(long * 1000)
	out["cluster.slo.burn.short.milli"] = out["slo.burn.short.milli"]
	out["cluster.slo.burn.long.milli"] = out["slo.burn.long.milli"]
}

// Flight exposes the router's own flight recorder (nil when unarmed).
func (r *Router) Flight() *telemetry.FlightRecorder { return r.cfg.Flight }

// SLOTracker exposes the router's own SLO tracker (nil when unarmed).
func (r *Router) SLOTracker() *telemetry.SLOTracker { return r.cfg.SLO }

// SlowTail gathers the newest slow-query captures across every shard
// group (one reachable replica per group, failover ladder applied),
// merges them by capture time and returns the last n (n <= 0 means
// everything the backends hold).
func (r *Router) SlowTail(n int) ([]telemetry.SlowCapture, error) {
	var all []telemetry.SlowCapture
	for _, g := range r.groups {
		caps, err := callGroup(r, g, nil, nil, func(c *crs.Client, _ *telemetry.Span) ([]telemetry.SlowCapture, error) {
			return c.SlowTail(n)
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d slowlog: %w", g.shard, err)
		}
		all = append(all, caps...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all, nil
}

// Failovers reports the total replica failovers performed so far.
func (r *Router) Failovers() int64 { return r.failovers.Load() }
