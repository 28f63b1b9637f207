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
// format), /trace?n=K (the span trees of recent traced retrievals — a
// request whose line carries a trace context, as crsctl -trace sends —
// as JSON lines),
// /flight?n=K, /top?n=K and /debug/pprof; -admin "" disables it.
// SIGINT/SIGTERM drain the server: new connections are refused, idle
// ones close at once, and a request still running gets -drain to finish
// before its connection is force-closed.
//
// The daemon serves the native engine: the vectorized host engine, which
// builds no simulated board and runs retrievals in parallel. EXPLAIN
// prices a retrieval in the modelled hardware's time by replaying it on
// a private instance of the cycle-accurate simulation, which runs
// in-process only (clarebench, the tests, the clare package).
// -kb is loaded from a read-only mapping of the file where the
// platform has mmap (store.mapped=1 in STATS) and from the file read
// into memory elsewhere; either way predicates view the image in place.
//
// Chaos testing: the repeatable -fault flag arms deterministic fault
// injection (seeded by -fault-seed). The native engine probes the
// retrieval site core.retrieve (keyed by predicate indicator) and, with
// -wal-dir, wal.append and wal.fsync; a rule naming a simulated drive,
// bus or board site (disk.read, disk.index, vme.bus, fs2.match) is for
// the in-process sim engine, and crsd exits 1 on it:
//
//	crsd -fault 'core.retrieve@married_couple/2=1,delay=30ms' family.pl
//
// The degradation tallies are visible in the wire STATS reply
// (degraded, retries, faults) and as clare_degraded_retrievals_total
// etc. on /metrics.
//
// Observability: -flight sizes the always-on flight recorder (one
// compact record per retrieval — predicate, mode, candidate funnel, wall
// time, and for a traced request its trace ID — dumped by the FLIGHT
// wire verb, /flight admin
// endpoint and crsctl -flight; -flight-snap names the file the ring
// snapshots to on SIGTERM and panic). A slow retrieval is one of those
// records, and /top groups the ring by predicate (count, summed wall
// time, P50/P90/P99 and max over the records it holds); crsctl -explain
// prices a slow goal on the modelled hardware, and a
// burn rate is a query over clare_retrieval_seconds and the error
// counters on /metrics. -log-level and -log-json shape the structured
// event log on stdout.
//
// Durable writes: -wal-dir enables the write-ahead log — WRITE
// (autocommit assert/retract) and transaction commits append to a
// segmented log before they apply, and a restart replays the log over
// the loaded store. -wal-fsync picks the flush policy (always, never,
// or an interval), and -replica serves read-only: writes arrive only as
// REPL records that crsrouter's log shipper pushes from the shard
// primary, resuming from the replica's own applied seq after a restart:
//
//	crsd -addr :7473 -kb build/shard-0.clare -wal-dir wal/s0r1 -replica
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
	admin := flag.String("admin", "", "admin HTTP address for /metrics, /trace, /flight, /top and /debug/pprof (empty disables)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown grace period for requests still running")
	traceBuf := flag.Int("trace-buf", telemetry.DefaultTraceRing, "traces of traced retrievals (requests carrying a trace context) kept for /trace")
	var faultSpecs multiFlag
	flag.Var(&faultSpecs, "fault", "arm a fault-injection rule, site[@key]=P or site[@key]=1/N[,limit=L] (repeatable)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault-injection schedule")
	kb := flag.String("kb", "", "compiled knowledge-base store to load (kbc output; a shard slice works unchanged)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: enables the durable write path (WRITE/SYNC/REPL) and replays the log over the loaded store at startup")
	walFsync := flag.String("wal-fsync", "always", "WAL fsync policy: always, never, or a flush interval like 50ms")
	replica := flag.Bool("replica", false, "serve as a read-only replica: client writes are rejected, only REPL applies records")
	flightN := flag.Int("flight", telemetry.DefaultFlightSize, "flight-recorder ring size: per-retrieval records kept for FLIGHT//flight (0 disables)")
	flightSnap := flag.String("flight-snap", "", "file the flight ring snapshots to on SIGTERM and panic (empty disables snapshots)")
	logLevel := flag.String("log-level", "info", "event-log level: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit the event log as JSON objects instead of logfmt lines")
	flag.Parse()
	if flag.NArg() == 0 && *kb == "" {
		fmt.Fprintln(os.Stderr, "usage: crsd [-addr host:port] [-admin host:port] [-kb store.clare] predicate.pl ...")
		os.Exit(2)
	}

	logg := telemetry.NewLogger(os.Stdout, telemetry.ParseLevel(*logLevel), *logJSON).With("daemon", "crsd")

	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
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
	var err error
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
	if cfg.Faults != nil {
		logg.Info("fault injection armed", "rules", strings.Join(faultSpecs, " "), "seed", *faultSeed)
	}
	srv := crs.NewServer(r)
	srv.SetLogger(logg)
	srv.SetFlight(flight, *flightSnap)
	if *kb != "" {
		// Register the store's predicates with the server (Load only sees
		// the .pl arguments).
		if err := srv.Adopt(); err != nil {
			fatal("adopting %s: %v", *kb, err)
		}
		logg.Info("store adopted", "path", *kb, "predicates", len(r.Predicates()))
	}
	for _, file := range flag.Args() {
		preds, err := plfile.ReadFile(file)
		if err != nil {
			fatal("%v", err)
		}
		module := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
		clauses := 0
		for _, cls := range preds {
			if err := srv.Load(module, cls); err != nil {
				fatal("loading %s: %v", file, err)
			}
			clauses += len(cls)
		}
		logg.Info("module loaded", "file", file, "predicates", len(preds), "clauses", clauses, "module", module)
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
			Flight:   flight,
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
