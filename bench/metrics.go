package main

// metricDef is one row of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, per workload, with the
// share of the parent's median each may worsen by before a change counts
// as a regression. p50_us, tail_us and ops_s are over the workload's
// reported operations: retrievals everywhere except write_mix, which
// reports its writer's durable writes. tail_us is a percentile of the
// whole window, P95 (P75 on point_open): the highest that repeats within
// the bound from seed to seed — see workload.tail.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "store_bytes_per_clause", Unit: "B", Better: "lower", Bound: 0.01},
}

// perLayer is the traced pass's budget, layer = module name. README.md
// says how each is measured and which end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "cluster.frontend_us", Unit: "us", Better: "lower"},
	{Name: "cluster.route_us", Unit: "us", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "crs.wire_us", Unit: "us", Better: "lower"},
	{Name: "crs.reply_bytes", Unit: "B", Better: "lower"},
	{Name: "crs.candidates_per_reply", Unit: "count", Better: "lower"},
	{Name: "crs.session_us", Unit: "us", Better: "lower"},
	{Name: "parse.term_us", Unit: "us", Better: "lower"},
	{Name: "term.render_us", Unit: "us", Better: "lower"},
	{Name: "core.retrieve_us", Unit: "us", Better: "lower"},
	{Name: "core.retrieve_bare_us", Unit: "us", Better: "lower"},
	{Name: "core.orchestrate_us", Unit: "us", Better: "lower"},
	{Name: "core.encode_us", Unit: "us", Better: "lower"},
	{Name: "core.qcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.decode_us", Unit: "us", Better: "lower"},
	{Name: "scw.scan_us", Unit: "us", Better: "lower"},
	{Name: "scw.scan_serial_us", Unit: "us", Better: "lower"},
	{Name: "scw.scan_par_us", Unit: "us", Better: "lower"},
	{Name: "scw.scan_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "scw.entries_scanned", Unit: "count", Better: "lower"},
	{Name: "scw.survivors", Unit: "count", Better: "lower"},
	{Name: "scw.false_drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fs2.match_us", Unit: "us", Better: "lower"},
	{Name: "fs2.match_ns_per_clause", Unit: "ns", Better: "lower"},
	{Name: "fs2.clauses_matched", Unit: "count", Better: "lower"},
	{Name: "fs2.survivors", Unit: "count", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "core.addclauses_us", Unit: "us", Better: "lower"},
	{Name: "core.addclauses_clauses_per_write", Unit: "ratio", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.save_s", Unit: "s", Better: "lower"},
	{Name: "core.load_heap_s", Unit: "s", Better: "lower"},
	{Name: "core.load_mmap_s", Unit: "s", Better: "lower"},
	{Name: "crs.adopt_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_records", Unit: "count", Better: "lower"},
	{Name: "cluster.connect_s", Unit: "s", Better: "lower"},
	{Name: "core.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.untraced_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.traced_l0_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.traced_l0_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim.ledger_us", Unit: "sim-us", Better: "lower"},
}

// metricValue is one reported metric. Rounds holds the per-round values
// a median came from, so `bench compare` can tell a shifted metric from
// a wide one; N is the pooled sample count behind them.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	MAD    float64   `json:"mad,omitempty"`
	N      int       `json:"n,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}
