package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clare/internal/cluster"
	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/telemetry"
	"clare/internal/wal"
)

// The stack under test, all in this process: two crs.Server shards
// (native engine, store mapped the way `crsd -kb … -engine native` maps
// it, registry + tracer + flight ring armed as crsd arms them by
// default, planner off, WAL fsync=always), a cluster.Router over them
// (hedging off, as crsrouter defaults), and a cluster.Server front-end.
// Every hop between them is a real loopback TCP connection.

const (
	shardCount = 2
	// clientCount is the number of generator connections: one per core
	// of the 2-core host the benchmark was sized on, never more.
	clientCount = 2
	// shutdownGrace bounds each server drain at teardown.
	shutdownGrace = 5 * time.Second
)

// setupTimes is where one set-up spent its time; Total is setup_s.
type setupTimes struct {
	Gen, Build, Save, Load, Adopt, WAL, Listen, Connect, Total time.Duration
	RecoverRecords                                             int
}

// backend is one shard: retriever, CRS server, its log and listener.
type backend struct {
	path   string
	walDir string
	retr   *core.Retriever
	srv    *crs.Server
	log    *wal.Log
	lis    net.Listener
	served chan error
}

// stack is a running system plus the clients pointed at its front-end.
type stack struct {
	dir      string
	kb       *kb
	oracle   *core.Retriever // the compile step's sim-engine retriever
	backends [shardCount]*backend
	router   *cluster.Router
	front    *cluster.Server
	frontLis net.Listener
	frontErr chan error
	clients  []*crs.Client
	times    setupTimes
	// storeBytes is the size of the shard store files together.
	storeBytes int64
}

// backendConfig is the retriever configuration crsd -engine native
// builds with every other flag at its default.
func backendConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(telemetry.DefaultTraceRing)
	cfg.Flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightSize)
	return cfg
}

// compile is the kbc step: every predicate compiled into a sim-engine
// retriever (which later doubles as the oracle).
func compile(k *kb) (*core.Retriever, error) {
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, p := range k.preds {
		if _, err := r.AddClauses(p.name, p.clauses); err != nil {
			return nil, fmt.Errorf("compiling %s: %w", p.name, err)
		}
	}
	return r, nil
}

// saveShards is kbc -shards: one store slice per shard, split by the
// router's own shard function.
func saveShards(r *core.Retriever, dir string) (paths [shardCount]string, total int64, err error) {
	for i := 0; i < shardCount; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.clare", i))
		f, err := os.Create(paths[i])
		if err != nil {
			return paths, 0, err
		}
		err = r.SaveKBPartition(f, func(pi core.Indicator) bool {
			return cluster.ShardOf(pi.String(), shardCount) == i
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return paths, 0, fmt.Errorf("writing %s: %w", paths[i], err)
		}
		st, err := os.Stat(paths[i])
		if err != nil {
			return paths, 0, err
		}
		total += st.Size()
	}
	return paths, total, nil
}

// openBackend loads one shard store and arms the server around it, in
// crsd's order: map the store, adopt its predicates, open the log and
// replay it. It does not listen yet.
func openBackend(path, walDir string, t *setupTimes) (*backend, error) {
	b := &backend{path: path, walDir: walDir}
	cfg := backendConfig()
	start := time.Now()
	r, _, err := core.MapRetriever(cfg, path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	b.retr = r
	t.Load += time.Since(start)

	start = time.Now()
	b.srv = crs.NewServer(r)
	b.srv.SetLogger(telemetry.NewLogger(io.Discard, telemetry.ParseLevel("info"), false))
	b.srv.SetFlight(cfg.Flight, "")
	if err := b.srv.Adopt(); err != nil {
		return nil, fmt.Errorf("adopting %s: %w", path, err)
	}
	t.Adopt += time.Since(start)

	start = time.Now()
	b.log, err = wal.Open(walDir, wal.Options{Fsync: wal.FsyncPolicy{Always: true}, Metrics: cfg.Metrics})
	if err != nil {
		return nil, fmt.Errorf("wal %s: %w", walDir, err)
	}
	b.srv.AttachWAL(b.log)
	n, err := b.srv.Recover()
	if err != nil {
		return nil, fmt.Errorf("wal recovery %s: %w", walDir, err)
	}
	t.RecoverRecords += n
	t.WAL += time.Since(start)
	return b, nil
}

// listen starts serving the backend on a loopback port.
func (b *backend) listen() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.lis = l
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(l) }()
	return nil
}

// close drains the server and releases the log and the store mapping.
// It is safe to call twice.
func (b *backend) close() {
	if b.lis != nil {
		b.lis.Close()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		b.srv.Shutdown(ctx) //nolint:errcheck // teardown: a forced close is as good
		cancel()
		<-b.served
		b.lis = nil
	}
	if b.log != nil {
		b.log.Close()
		b.log = nil
	}
	if b.retr != nil {
		b.retr.CloseStore()
		b.retr = nil
	}
}

// setUp generates the knowledge base for seed, compiles it, writes the
// shard stores under dir, boots the whole stack and returns once every
// client has had a good reply through the router from every shard. The
// time all of that takes is setup_s.
func setUp(seed int64, sh shape, dir string) (*stack, error) {
	s := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			s.tearDown()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	begin := time.Now()

	start := time.Now()
	s.kb = generate(seed, sh)
	s.times.Gen = time.Since(start)

	start = time.Now()
	var err error
	if s.oracle, err = compile(s.kb); err != nil {
		return nil, err
	}
	s.times.Build = time.Since(start)

	start = time.Now()
	paths, total, err := saveShards(s.oracle, dir)
	if err != nil {
		return nil, err
	}
	s.storeBytes = total
	s.times.Save = time.Since(start)

	var shards [][]string
	for i := range s.backends {
		b, err := openBackend(paths[i], filepath.Join(dir, fmt.Sprintf("wal-%d", i)), &s.times)
		if err != nil {
			return nil, err
		}
		s.backends[i] = b
	}
	start = time.Now()
	for _, b := range s.backends {
		if err := b.listen(); err != nil {
			return nil, err
		}
		shards = append(shards, []string{b.lis.Addr().String()})
	}
	s.router, err = cluster.NewRouter(cluster.Config{
		Shards:  shards,
		Metrics: telemetry.NewRegistry(),
		Tracer:  telemetry.NewTracer(telemetry.DefaultTraceRing),
		Flight:  telemetry.NewFlightRecorder(telemetry.DefaultFlightSize),
	})
	if err != nil {
		return nil, err
	}
	s.router.StartReplication()
	s.front = cluster.NewServer(s.router)
	if s.frontLis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.frontErr = make(chan error, 1)
	go func() { s.frontErr <- s.front.Serve(s.frontLis) }()
	s.times.Listen = time.Since(start)

	start = time.Now()
	for i := 0; i < clientCount; i++ {
		c, err := crs.Dial(s.frontLis.Addr().String())
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
		// One retrieval per shard: the router dials its backends lazily,
		// so this is the router connect, and the first good replies.
		for _, p := range s.firstPerShard() {
			res, err := c.Retrieve("fs1+fs2", p.factGoal(0))
			if err != nil {
				return nil, fmt.Errorf("first reply: %w", err)
			}
			if len(res.Clauses) != 1 {
				return nil, fmt.Errorf("first reply: %s gave %d candidates, want 1", p.factGoal(0), len(res.Clauses))
			}
		}
	}
	s.times.Connect = time.Since(start)
	s.times.Total = time.Since(begin)
	ok = true
	return s, nil
}

// firstPerShard is one p_i predicate on each shard.
func (s *stack) firstPerShard() []*predicate {
	var out []*predicate
	seen := make(map[int]bool)
	for _, p := range pointPreds(s.kb) {
		sh := cluster.ShardOf(p.indicator(), shardCount)
		if !seen[sh] {
			seen[sh] = true
			out = append(out, p)
		}
	}
	return out
}

// releaseSource drops the oracle and the generated clause terms of every
// predicate not in keep, and collects them.
func (s *stack) releaseSource(keep []*predicate) {
	s.oracle = nil
	kept := make(map[*predicate]bool, len(keep))
	for _, p := range keep {
		kept[p] = true
	}
	for _, p := range s.kb.preds {
		if !kept[p] {
			p.clauses = nil
		}
	}
	runtime.GC()
}

// shardOf is the index of the shard holding p.
func (s *stack) shardOf(p *predicate) int { return cluster.ShardOf(p.indicator(), shardCount) }

// stopServers closes the clients and stops every server, waiting for
// each; the store files and logs stay on disk. It is safe to call twice.
func (s *stack) stopServers() {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	if s.frontLis != nil {
		s.frontLis.Close()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		s.front.Shutdown(ctx) //nolint:errcheck // teardown: a forced close is as good
		cancel()
		<-s.frontErr
		s.frontLis = nil
	}
	if s.router != nil {
		s.router.Close()
		s.router = nil
	}
	for _, b := range s.backends {
		if b != nil {
			b.close()
		}
	}
}

// tearDown stops everything setUp started and removes the stack's
// directory.
func (s *stack) tearDown() {
	s.stopServers()
	os.RemoveAll(s.dir)
}
