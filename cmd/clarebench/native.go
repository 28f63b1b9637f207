package main

import (
	"fmt"
	"runtime"
	"time"

	"clare/internal/core"
	"clare/internal/term"
	"clare/internal/workload"
)

// expNATIVE races the native vectorized engine against the cycle-accurate
// simulation on the Warren-scale KB: both engines answer the same goal
// set through the fs1+fs2 pipeline, candidates are checked identical
// query by query (the differential contract, zero divergences), and the
// headline number is wall-clock throughput — the native engine's
// first-class metric, where the simulation's is simulated time.
func expNATIVE() error {
	const passes = 16
	wk := workload.WarrenKB{Scale: 0.01, Seed: 1}
	preds := wk.Generate()

	build := func(engine core.Engine) (*core.Retriever, error) {
		cfg := core.DefaultConfig()
		cfg.Engine = engine
		r, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		for _, p := range preds {
			if _, err := r.AddClauses("warren", p.Clauses); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	nGoals := len(preds)
	if nGoals > 8 {
		nGoals = 8
	}
	goals := make([]term.Term, nGoals)
	for i := range goals {
		goals[i] = term.New(preds[i].Name, term.Atom("e1"), term.NewVar("V"))
	}

	type side struct {
		engine core.Engine
		r      *core.Retriever
		addrs  []string
		qps    float64
	}
	sides := make([]*side, 0, 2)
	for _, engine := range []core.Engine{core.EngineSim, core.EngineNative} {
		r, err := build(engine)
		if err != nil {
			return err
		}
		sides = append(sides, &side{engine: engine, r: r})
		noteEngine(engine.String())
	}

	w := tab()
	fmt.Fprintln(w, "engine\tqueries\twall time\twall queries/s\tspeedup")
	divergences := 0
	for _, s := range sides {
		// Warm-up pass: fills the query cache and the native arena pool,
		// and captures the candidate sets for the differential check.
		s.addrs = make([]string, nGoals)
		for i, g := range goals {
			rt, err := s.r.Retrieve(g, core.ModeFS1FS2)
			if err != nil {
				return err
			}
			s.addrs[i] = fmt.Sprint(addrList(rt))
			if ref := sides[0].addrs[i]; s.addrs[i] != ref {
				divergences++
				fmt.Printf("DIVERGENCE goal %d: sim %s vs %s %s\n", i, ref, s.engine, s.addrs[i])
			}
		}
		queries := 0
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, g := range goals {
				if _, err := s.r.Retrieve(g, core.ModeFS1FS2); err != nil {
					return err
				}
				queries++
			}
		}
		elapsed := time.Since(start)
		s.qps = float64(queries) / elapsed.Seconds()
		fmt.Fprintf(w, "%s\t%d\t%v\t%.0f\t%.1fx\n",
			s.engine, queries, elapsed.Round(time.Microsecond), s.qps, s.qps/sides[0].qps)
		record("NATIVE", s.engine.String()+"_wall_qps", s.qps, "wall-queries/s")
	}
	if err := w.Flush(); err != nil {
		return err
	}
	record("NATIVE", "native_speedup", sides[1].qps/sides[0].qps, "x")
	record("NATIVE", "divergences", float64(divergences), "count")
	if divergences > 0 {
		return fmt.Errorf("NATIVE: %d candidate-set divergences between engines", divergences)
	}
	fmt.Printf("(candidate sets identical across engines on all %d goals; mode fs1+fs2)\n", nGoals)
	return nativeParallelSweep()
}

// nativeParallelSweep measures the partitioned FS1 scan's worker-count
// scaling curve on the biggest predicate of a 10x-larger Warren KB (big
// enough to split under the default partition threshold), in fs1 mode —
// the whole-secondary-file scan is the partitioned path's showcase. The
// curve is honest about the host: on a single-core runner the configured
// workers still exercise the concurrent merge path but cannot run
// simultaneously, so the speedup hovers near (slightly below) 1x; the
// recorded gomaxprocs in the JSON header tells benchgate whether the
// speedup floor applies.
func nativeParallelSweep() error {
	wk := workload.WarrenKB{Scale: 0.1, Seed: 1}
	preds := wk.Generate()
	big := 0
	for i := range preds {
		if len(preds[i].Clauses) > len(preds[big].Clauses) {
			big = i
		}
	}
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	r, err := core.New(cfg)
	if err != nil {
		return err
	}
	if _, err := r.AddClauses("warren", preds[big].Clauses); err != nil {
		return err
	}
	const passes = 50
	goals := make([]term.Term, 8)
	for i := range goals {
		goals[i] = term.New(preds[big].Name, term.Atom(fmt.Sprintf("e%d", i+1)), term.NewVar("V"))
	}
	fmt.Printf("\nparallel scan sweep: %s/%d entries, mode fs1, GOMAXPROCS %d\n",
		preds[big].Name, len(preds[big].Clauses), runtime.GOMAXPROCS(0))
	w := tab()
	fmt.Fprintln(w, "scan workers\tqueries\twall time\twall queries/s\tspeedup vs 1")
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		r.SetScanWorkers(workers)
		for _, g := range goals { // warm-up: arena + pool + query cache
			if _, err := r.Retrieve(g, core.ModeFS1); err != nil {
				return err
			}
		}
		queries := 0
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, g := range goals {
				if _, err := r.Retrieve(g, core.ModeFS1); err != nil {
					return err
				}
				queries++
			}
		}
		elapsed := time.Since(start)
		qps := float64(queries) / elapsed.Seconds()
		if workers == 1 {
			base = qps
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%.0f\t%.2fx\n",
			workers, queries, elapsed.Round(time.Microsecond), qps, qps/base)
		record("NATIVE", fmt.Sprintf("par_wall_qps_w%d", workers), qps, "wall-queries/s")
		if workers == 8 {
			record("NATIVE", "par_speedup_w8", qps/base, "x")
		}
	}
	return w.Flush()
}
