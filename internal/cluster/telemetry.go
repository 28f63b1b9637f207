package cluster

import (
	"strconv"

	"clare/internal/telemetry"
)

// routerMetrics holds the router's registry handles. Everything is
// nil-safe: a router without a registry pays one nil check per event,
// matching the conventions of internal/core and internal/crs.
type routerMetrics struct {
	// requests/failovers/writes are per-shard counters, indexed by shard.
	requests  []*telemetry.Counter
	failovers []*telemetry.Counter
	writes    []*telemetry.Counter

	fanouts     *telemetry.Counter
	errors      *telemetry.Counter
	writeErrors *telemetry.Counter
	latency     *telemetry.Histogram
	tripped     *telemetry.Gauge
	stale       *telemetry.Gauge
	trips       *telemetry.Counter
	readmits    *telemetry.Counter
}

func newRouterMetrics(reg *telemetry.Registry, shards int) *routerMetrics {
	m := &routerMetrics{
		requests:  make([]*telemetry.Counter, shards),
		failovers: make([]*telemetry.Counter, shards),
		writes:    make([]*telemetry.Counter, shards),
	}
	for i := 0; i < shards; i++ {
		shard := telemetry.Labels{"shard": strconv.Itoa(i)}
		m.requests[i] = reg.Counter("clare_cluster_requests_total",
			"cluster retrievals served per shard group", shard)
		m.failovers[i] = reg.Counter("clare_cluster_failovers_total",
			"replica failovers performed per shard group", shard)
		m.writes[i] = reg.Counter("clare_cluster_writes_total",
			"writes routed to the shard group's primary", shard)
	}
	m.fanouts = reg.Counter("clare_cluster_fanouts_total",
		"retrievals scattered to every shard group", nil)
	m.errors = reg.Counter("clare_cluster_errors_total",
		"routed retrievals that failed after the failover ladder", nil)
	m.writeErrors = reg.Counter("clare_cluster_write_errors_total",
		"routed writes rejected or lost at the shard primary", nil)
	m.stale = reg.Gauge("clare_cluster_replicas_stale",
		"replicas currently beyond the staleness bound", nil)
	m.latency = reg.Histogram("clare_cluster_request_seconds",
		"wall time of one routed retrieval including failovers", nil, nil)
	m.tripped = reg.Gauge("clare_cluster_nodes_tripped",
		"backend nodes currently tripped out of rotation", nil)
	m.trips = reg.Counter("clare_cluster_node_trips_total",
		"backend nodes tripped after consecutive failures", nil)
	m.readmits = reg.Counter("clare_cluster_node_readmits_total",
		"tripped backend nodes re-admitted on probation", nil)
	return m
}
