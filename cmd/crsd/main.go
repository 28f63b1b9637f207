// Command crsd is the Clause Retrieval Server daemon: it loads one or
// more predicate files into a CLARE retriever and serves the CRS wire
// protocol over TCP for multiple concurrent clients (§2.2).
//
// Usage:
//
//	crsd -addr :7071 -admin :7072 family.pl emp.pl
//
// Each file holds the clauses of one predicate; its base name becomes the
// module name. A compiled store (kbc output, including a shard slice
// from kbc -shards) loads without re-parsing:
//
//	crsd -addr :7071 -kb build/shard-0.clare
//
// The admin listener serves /metrics (Prometheus text
// format), /trace?n=K (recent retrieval span trees as JSON lines) and
// /debug/pprof; -admin "" disables it. SIGINT/SIGTERM drain the server:
// new connections are refused and in-flight sessions get -drain to
// finish before being force-closed.
//
// The daemon serves the native engine: the vectorized host engine, which
// builds no simulated chassis and runs retrievals in parallel (STATS key
// engine.native 1). -engine sim is the explicit "reproduce the paper's
// timings" mode: the cycle-accurate hardware simulation on the paper's
// one board, returning the same candidates in the same order with the
// same funnel, and pricing every stage in the modelled hardware's time.
// -latency-window resizes the per-predicate latency sample windows
// behind the admin /top quantiles (latency.window in STATS).
// -kb is loaded from a read-only mapping of the file where the
// platform has mmap (store.mapped=1 in STATS) and from the file read
// into memory elsewhere; either way predicates view the image in place.
//
// Chaos testing: the repeatable -fault flag arms deterministic fault
// injection (seeded by -fault-seed), e.g.
//
//	crsd -engine sim -fault fs2.match=0.5 -fault disk.index=1/100 family.pl
//
// The degradation tallies are visible in the wire STATS reply
// (degraded, retries, faults) and as clare_degraded_retrievals_total
// etc. on /metrics; the sim engine's board health is on /metrics
// (clare_boards_tripped, clare_board_trips_total).
//
// Observability: the daemon self-diagnoses. -flight sizes the
// always-on flight recorder (one compact record per retrieval, dumped
// by the FLIGHT wire verb, /flight admin endpoint and crsctl -flight;
// -flight-snap names the file the ring snapshots to on SIGTERM, panic
// and SLO breach). -slow-ms and -slow-p99x arm the slow-query log:
// a retrieval over the absolute threshold, or over N× its predicate's
// rolling P99, gets an automatic capture-side EXPLAIN re-run whose
// profile lands in the SLOWLOG ring (-slow-log entries, captures per
// predicate spaced -slow-gap apart). -slo p99=5ms,err=0.1% arms SLO
// burn-rate accounting over short and long windows (slo.* STATS keys,
// clare_slo_* metrics, /slo endpoint). -log-level and -log-json shape
// the structured event log on stdout.
//
// Durable writes: -wal-dir enables the write-ahead log — WRITE
// (autocommit assert/retract) and transaction commits append to a
// segmented log before they apply, and a restart replays the log over
// the loaded store. -wal-fsync picks the flush policy (always, never,
// or an interval), -replica serves read-only (writes arrive only as
// REPL records from the shard primary), and -follow pulls a primary's
// log over SYNC for catch-up without a pushing router:
//
//	crsd -addr :7473 -kb build/shard-0.clare -wal-dir wal/s0r1 -replica -follow 127.0.0.1:7471
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/fault"
	"clare/internal/plfile"
	"clare/internal/telemetry"
	"clare/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7071", "listen address")
	admin := flag.String("admin", "", "admin HTTP address for /metrics, /trace and /debug/pprof (empty disables)")
	engine := flag.String("engine", "native", "retrieval engine: native (vectorized, retrievals in parallel) or sim (the cycle-accurate simulation on the paper's one board, to reproduce its timings)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown grace period for in-flight sessions")
	traceBuf := flag.Int("trace-buf", telemetry.DefaultTraceRing, "retrieval traces kept for /trace")
	var faultSpecs multiFlag
	flag.Var(&faultSpecs, "fault", "arm a fault-injection rule, site[@key]=P or site[@key]=1/N[,limit=L] (repeatable)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault-injection schedule")
	kb := flag.String("kb", "", "compiled knowledge-base store to load (kbc output; a shard slice works unchanged)")
	latWindow := flag.Int("latency-window", 0, "per-predicate latency samples kept for quantiles (0 = default)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: enables the durable write path (WRITE/SYNC/REPL) and replays the log over the loaded store at startup")
	walFsync := flag.String("wal-fsync", "always", "WAL fsync policy: always, never, or a flush interval like 50ms")
	replica := flag.Bool("replica", false, "serve as a read-only replica: client writes are rejected, only REPL applies records")
	follow := flag.String("follow", "", "primary address to pull the log from (replica catch-up without a pushing router)")
	followShard := flag.Int("follow-shard", 0, "shard index named in SYNC requests to -follow")
	followEvery := flag.Duration("follow-interval", time.Second, "poll period for -follow")
	flightN := flag.Int("flight", telemetry.DefaultFlightSize, "flight-recorder ring size: per-retrieval records kept for FLIGHT//flight (0 disables)")
	flightSnap := flag.String("flight-snap", "", "file the flight ring snapshots to on SIGTERM, panic and SLO breach (empty disables snapshots)")
	slowMs := flag.Float64("slow-ms", 0, "absolute slow-query threshold in milliseconds: slower retrievals get an automatic EXPLAIN capture (0 disables)")
	slowP99x := flag.Float64("slow-p99x", 0, "adaptive slow-query threshold: N times the predicate's rolling P99 (0 disables; with -slow-ms the smaller threshold wins)")
	slowLogN := flag.Int("slow-log", telemetry.DefaultSlowLogSize, "slow-query captures kept for SLOWLOG//slowlog")
	slowGap := flag.Duration("slow-gap", telemetry.DefaultSlowGap, "minimum spacing between captures of the same predicate")
	sloSpec := flag.String("slo", "", "service-level objective, e.g. p99=5ms,err=0.1% (arms burn-rate accounting: slo.* STATS, clare_slo_* metrics, /slo)")
	logLevel := flag.String("log-level", "info", "event-log level: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit the event log as JSON objects instead of logfmt lines")
	flag.Parse()
	if flag.NArg() == 0 && *kb == "" {
		fmt.Fprintln(os.Stderr, "usage: crsd [-addr host:port] [-admin host:port] [-engine native|sim] [-kb store.clare] predicate.pl ...")
		os.Exit(2)
	}

	logg := telemetry.NewLogger(os.Stdout, telemetry.ParseLevel(*logLevel), *logJSON).With("daemon", "crsd")

	cfg := core.DefaultConfig()
	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fatal("%v", err)
	}
	cfg.Engine = eng
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(*traceBuf)
	if len(faultSpecs) > 0 {
		inj := fault.New(*faultSeed)
		for _, spec := range faultSpecs {
			rule, err := fault.ParseRule(spec)
			if err != nil {
				fatal("%v", err)
			}
			if !fault.IsKnownSite(rule.Site) {
				fmt.Fprintf(os.Stderr, "crsd: warning: -fault %s names unknown site %q (nothing probes it)\n", spec, rule.Site)
			}
			inj.Add(rule)
		}
		cfg.Faults = inj
		logg.Info("fault injection armed", "rules", strings.Join(faultSpecs, " "), "seed", *faultSeed)
	}
	// The recorder must be armed before the retriever is built — the
	// retriever copies its Config at construction.
	var flight *telemetry.FlightRecorder
	if *flightN > 0 {
		flight = telemetry.NewFlightRecorder(*flightN)
		cfg.Flight = flight
	} else if *flightSnap != "" {
		fatal("-flight-snap needs -flight > 0")
	}
	var r *core.Retriever
	if *kb != "" {
		start := time.Now()
		var mapped bool
		if r, mapped, err = core.MapRetriever(cfg, *kb); err != nil {
			fatal("loading %s: %v", *kb, err)
		}
		logg.Info("store loaded", "path", *kb, "mapped", mapped, "cold_start", time.Since(start).Round(time.Microsecond))
	} else {
		r, err = core.New(cfg)
		if err != nil {
			fatal("%v", err)
		}
	}
	srv := crs.NewServer(r)
	if *latWindow > 0 {
		srv.SetLatencyWindow(*latWindow)
	}
	srv.SetLogger(logg)
	srv.SetFlight(flight, *flightSnap)
	if *slowMs > 0 || *slowP99x > 0 {
		srv.SetSlowLog(telemetry.NewSlowQueryLog(*slowLogN, *slowGap),
			time.Duration(*slowMs*float64(time.Millisecond)), *slowP99x)
		logg.Info("slow-query log armed", "abs_ms", *slowMs, "p99x", *slowP99x, "entries", *slowLogN)
	} else if *slowLogN != telemetry.DefaultSlowLogSize {
		fatal("-slow-log needs -slow-ms or -slow-p99x")
	}
	var sloT *telemetry.SLOTracker
	if *sloSpec != "" {
		slo, err := telemetry.ParseSLO(*sloSpec)
		if err != nil {
			fatal("%v", err)
		}
		sloT = telemetry.NewSLOTracker(slo)
		sloT.Instrument(cfg.Metrics)
		sloT.OnBreach = func(burn float64) {
			// A fast burn is exactly the moment the black box matters:
			// snapshot it while the bad window is still in the ring.
			logg.Error("slo breach", "burn", fmt.Sprintf("%.1f", burn), "objective", slo.String())
			if err := srv.SnapshotFlight(); err != nil {
				logg.Error("flight snapshot failed", "error", err)
			}
		}
		srv.SetSLO(sloT)
		logg.Info("slo armed", "objective", slo.String())
	}
	if *kb != "" {
		// Register the store's predicates with the server (Load only sees
		// the .pl arguments).
		if err := srv.Adopt(); err != nil {
			fatal("adopting %s: %v", *kb, err)
		}
		logg.Info("store adopted", "path", *kb, "predicates", len(r.Predicates()))
	}
	for _, file := range flag.Args() {
		clauses, err := plfile.ReadFile(file)
		if err != nil {
			fatal("%v", err)
		}
		module := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
		if err := srv.Load(module, clauses); err != nil {
			fatal("loading %s: %v", file, err)
		}
		logg.Info("module loaded", "file", file, "clauses", len(clauses), "module", module)
	}

	if *walDir != "" {
		policy, err := wal.ParseFsyncPolicy(*walFsync)
		if err != nil {
			fatal("%v", err)
		}
		wlog, err := wal.Open(*walDir, wal.Options{
			Fsync:   policy,
			Faults:  cfg.Faults,
			Metrics: cfg.Metrics,
		})
		if err != nil {
			fatal("wal: %v", err)
		}
		defer wlog.Close()
		srv.AttachWAL(wlog)
		n, err := srv.Recover()
		if err != nil {
			fatal("wal recovery: %v", err)
		}
		logg.Info("wal recovered", "dir", *walDir, "records", n, "seq", wlog.LastSeq(), "fsync", policy)
	} else if *walFsync != "always" {
		fatal("-wal-fsync needs -wal-dir")
	}
	if *replica {
		srv.SetReadOnly(true)
		logg.Info("serving read-only", "replica", true)
	}
	if *follow != "" {
		if *walDir == "" {
			fatal("-follow needs -wal-dir (the pulled log must land somewhere durable)")
		}
		fc, err := crs.DialTimeout(*follow, 5*time.Second)
		if err != nil {
			fatal("dialing -follow primary %s: %v", *follow, err)
		}
		defer fc.Close()
		var followMu sync.Mutex
		fetch := func(from uint64, max int) ([]wal.Record, uint64, error) {
			followMu.Lock()
			defer followMu.Unlock()
			recs, last, err := fc.SyncLog(*followShard, from)
			return recs, last, err
		}
		follower := wal.NewFollower(fetch, srv.ApplyReplicated, srv.AppliedSeq,
			wal.FollowerConfig{Interval: *followEvery})
		if n, err := follower.CatchUp(); err != nil {
			logg.Warn("follow catch-up failed; polling retries", "primary", *follow, "error", err)
		} else {
			logg.Info("follow caught up", "primary", *follow, "records", n, "applied_seq", srv.AppliedSeq())
		}
		follower.Run()
		defer follower.Close()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	logg.Info("listening", "addr", l.Addr())

	var adminSrv *http.Server
	if *admin != "" {
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			fatal("admin: %v", err)
		}
		adminSrv = &http.Server{Handler: telemetry.NewAdminMux(telemetry.AdminConfig{
			Registry: cfg.Metrics,
			Tracer:   cfg.Tracer,
			Latency:  srv.Latency(),
			Flight:   flight,
			SLO:      sloT,
			SlowLog:  srv.SlowLog(),
		})}
		logg.Info("admin listening", "url", fmt.Sprintf("http://%s/metrics", al.Addr()))
		go func() {
			if err := adminSrv.Serve(al); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "crsd: admin: %v\n", err)
			}
		}()
	}

	// Serve until the listener closes; a signal triggers the drain.
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
	<-serveErr // Serve returns once the listener is closed and handlers drain
	if *flightSnap != "" {
		if err := srv.SnapshotFlight(); err != nil {
			logg.Error("flight snapshot failed", "path", *flightSnap, "error", err)
		} else {
			logg.Info("flight snapshot written", "path", *flightSnap, "recorded", flight.Recorded())
		}
	}
	logg.Info("bye")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crsd: "+format+"\n", args...)
	os.Exit(1)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
