// Command crsrouter is the cluster front-end: it scatter-gathers the
// CRS wire protocol across a set of sharded, replicated crsd backends.
// Clients (crsctl, crs.Client, PDBM) speak to it exactly as to a single
// crsd — the protocol is unchanged; the router decides which shard
// group owns each goal's predicate (the same rendezvous shard function
// kbc -shards partitions with), fails over between a shard's replicas
// when one dies, and merges fan-out results in shard order.
//
// Usage:
//
//	crsrouter -addr :7070 \
//	    -shard 127.0.0.1:7071,127.0.0.1:7081 \
//	    -shard 127.0.0.1:7072,127.0.0.1:7082
//
// Each -shard names one shard group as a comma-separated replica list,
// in shard order — the order must match the kbc -shards build. The
// FIRST address in each list is the shard's write primary: WRITE
// (autocommit assert/retract) and pass-through transactions route to it
// alone, and the router ships its write-ahead log to the remaining
// replicas (disable with -no-replicate). A replica trailing the primary
// by more than -max-lag records is demoted in the retrieval failover
// order until it catches up.
//
// Replica selection is load-aware: within a shard group healthy
// replicas are ranked by outstanding load × observed service time
// (native-engine backends, discovered through a STATS probe when a
// connection is first armed, start with a faster prior). -hedge arms
// request hedging: a retrieval still unanswered past its predicate's
// observed P99 (floored at -hedge-floor) is duplicated to the runner-up
// replica and the first answer wins, the loser being cancelled —
// tail-latency insurance against one slow replica. Hedge traffic shows
// up as cluster.hedges / cluster.hedge.wins in STATS.
//
// The admin listener serves /metrics (clare_cluster_* and the Prometheus
// base set), /trace?n=K (router span trees) and /debug/pprof; -admin ""
// disables it. SIGINT/SIGTERM drain: new connections are refused and
// in-flight sessions get -drain to finish before being force-closed.
//
// Observability mirrors crsd: -flight sizes the router's own flight
// recorder (one record per routed retrieval with the routing decision,
// the merged candidate funnel and the hedge flag; FLIGHT wire verb and
// /flight endpoint; -flight-snap snapshots it on SIGTERM and SLO
// breach), -slo arms the router's end-to-end burn-rate accounting, and
// STATS overlays a cluster-wide burn recomputed from the backends'
// summed SLO windows (cluster.slo.burn.*). SLOWLOG scatter-gathers the
// backends' slow-query captures. -log-level/-log-json shape the
// structured event log on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clare/internal/cluster"
	"clare/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	admin := flag.String("admin", "", "admin HTTP address for /metrics, /trace and /debug/pprof (empty disables)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown grace period for in-flight sessions")
	traceBuf := flag.Int("trace-buf", telemetry.DefaultTraceRing, "routed-retrieval traces kept for /trace")
	wireTimeout := flag.Duration("wire-timeout", cluster.DefaultWireTimeout, "backend dial and wire operation bound")
	callTimeout := flag.Duration("call-timeout", cluster.DefaultCallTimeout, "per-backend request budget before failover (negative disables)")
	trip := flag.Int("trip", cluster.DefaultTripThreshold, "consecutive failures that trip a backend out of rotation")
	probe := flag.Duration("probe", cluster.DefaultProbePeriod, "tripped-backend cool-off before probationary re-admission")
	pool := flag.Int("pool", cluster.DefaultPoolSize, "idle connections kept per backend")
	maxLag := flag.Uint64("max-lag", cluster.DefaultMaxLag, "log records a replica may trail its primary before it is demoted as stale")
	shipEvery := flag.Duration("ship-interval", cluster.DefaultShipInterval, "idle log-shipping period per replica (writes wake shippers early)")
	noRepl := flag.Bool("no-replicate", false, "disable primary-to-replica log shipping (backends sync some other way)")
	hedge := flag.Bool("hedge", false, "hedge slow retrievals: duplicate to a second replica past the predicate's P99 budget, first answer wins")
	hedgeFloor := flag.Duration("hedge-floor", cluster.DefaultHedgeFloor, "minimum hedge budget (cold predicates never hedge earlier)")
	latWindow := flag.Int("latency-window", 0, "latency samples kept per predicate and per backend for quantiles (0 = default)")
	flightN := flag.Int("flight", telemetry.DefaultFlightSize, "flight-recorder ring size: routed-retrieval records kept for FLIGHT//flight (0 disables)")
	flightSnap := flag.String("flight-snap", "", "file the flight ring snapshots to on SIGTERM and SLO breach (empty disables snapshots)")
	sloSpec := flag.String("slo", "", "service-level objective over routed retrievals, e.g. p99=10ms,err=0.1%")
	logLevel := flag.String("log-level", "info", "event-log level: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit the event log as JSON objects instead of logfmt lines")
	var shardSpecs multiFlag
	flag.Var(&shardSpecs, "shard", "one shard group as comma-separated replica addresses, in shard order (repeatable)")
	flag.Parse()
	if len(shardSpecs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: crsrouter [-addr host:port] -shard host:port[,host:port...] [-shard ...]")
		os.Exit(2)
	}

	logg := telemetry.NewLogger(os.Stdout, telemetry.ParseLevel(*logLevel), *logJSON).With("daemon", "crsrouter")

	cfg := cluster.Config{
		WireTimeout:   *wireTimeout,
		CallTimeout:   *callTimeout,
		TripThreshold: *trip,
		ProbePeriod:   *probe,
		PoolSize:      *pool,
		MaxLag:        *maxLag,
		ShipInterval:  *shipEvery,
		Hedge:         *hedge,
		HedgeFloor:    *hedgeFloor,
		LatencyWindow: *latWindow,
		Metrics:       telemetry.NewRegistry(),
		Tracer:        telemetry.NewTracer(*traceBuf),
	}
	for _, spec := range shardSpecs {
		var replicas []string
		for _, a := range strings.Split(spec, ",") {
			if a = strings.TrimSpace(a); a != "" {
				replicas = append(replicas, a)
			}
		}
		cfg.Shards = append(cfg.Shards, replicas)
	}
	if *flightN > 0 {
		cfg.Flight = telemetry.NewFlightRecorder(*flightN)
	}
	var sloT *telemetry.SLOTracker
	if *sloSpec != "" {
		slo, err := telemetry.ParseSLO(*sloSpec)
		if err != nil {
			fatal("%v", err)
		}
		sloT = telemetry.NewSLOTracker(slo)
		sloT.Instrument(cfg.Metrics)
		cfg.SLO = sloT
		logg.Info("slo armed", "objective", slo.String())
	}
	snapshotFlight := func() {
		if *flightSnap == "" || cfg.Flight == nil {
			return
		}
		if err := cfg.Flight.SnapshotToFile(*flightSnap); err != nil {
			logg.Error("flight snapshot failed", "path", *flightSnap, "error", err)
		} else {
			logg.Info("flight snapshot written", "path", *flightSnap, "recorded", cfg.Flight.Recorded())
		}
	}
	if sloT != nil {
		sloT.OnBreach = func(burn float64) {
			logg.Error("slo breach", "burn", fmt.Sprintf("%.1f", burn))
			snapshotFlight()
		}
	}
	router, err := cluster.NewRouter(cfg)
	if err != nil {
		fatal("%v", err)
	}
	defer router.Close()
	if !*noRepl {
		router.StartReplication()
		logg.Info("log shipping armed", "primary", "first address per -shard", "max_lag", *maxLag, "interval", *shipEvery)
	}
	if *hedge {
		logg.Info("request hedging armed", "budget", "per-predicate P99", "floor", *hedgeFloor)
	}
	srv := cluster.NewServer(router)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	logg.Info("listening", "addr", l.Addr(), "shards", router.Shards(), "replicas", router.Replicas())

	var adminSrv *http.Server
	if *admin != "" {
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			fatal("admin: %v", err)
		}
		adminSrv = &http.Server{Handler: telemetry.NewAdminMux(telemetry.AdminConfig{
			Registry: cfg.Metrics,
			Tracer:   cfg.Tracer,
			Latency:  router.Latency(),
			Flight:   cfg.Flight,
			SLO:      sloT,
		})}
		logg.Info("admin listening", "url", fmt.Sprintf("http://%s/metrics", al.Addr()))
		go func() {
			if err := adminSrv.Serve(al); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "crsrouter: admin: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		fatal("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logg.Info("draining")
	l.Close()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logg.Warn("drain expired; connections force-closed", "error", err)
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	<-serveErr // Serve returns once the listener closes and handlers drain
	snapshotFlight()
	logg.Info("bye")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crsrouter: "+format+"\n", args...)
	os.Exit(1)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
