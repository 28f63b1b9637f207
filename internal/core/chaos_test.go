package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/scw"
	"clare/internal/term"
)

// TestChaosSoak hammers one retriever from many goroutines while every
// injection site misbehaves at once, with trip/probe churn running fast
// enough that boards cycle through tripped and probationary states
// throughout the run. The soak properties:
//
//   - no lost retrievals: Retrieve never returns an error for an
//     injected fault, whatever rung of the degradation ladder it lands on;
//   - soundness survives chaos: every retrieval's candidate set still
//     contains the one true unifier;
//   - pool invariants hold under concurrent sampling: leased never
//     exceeds the chassis width, a tripped unit is never leased, and the
//     free/leased/tripped split never exceeds the unit count;
//   - no deadlock: the whole run finishes under a watchdog.
//
// CI runs this under -race; the sampler goroutine doubles as a race
// detector probe against the lease/trip/readmit paths.
func TestChaosSoak(t *testing.T) {
	workers, iters := 8, 60
	if testing.Short() {
		workers, iters = 4, 15
	}

	cfg := DefaultConfig()
	cfg.Boards = 4
	cfg.TripThreshold = 2
	cfg.ProbePeriod = 2 * time.Millisecond
	cfg.RetryBackoff = time.Microsecond
	cfg.Faults = fault.New(20260805).
		Add(fault.Rule{Site: fault.SiteFS2, Probability: 0.25}).
		Add(fault.Rule{Site: fault.SiteDiskRead, Probability: 0.05}).
		Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 0.10}).
		Add(fault.Rule{Site: fault.SiteBus, Probability: 0.05}).
		Add(fault.Rule{Site: fault.SiteRetrieve, Probability: 0.05})
	const facts = 60
	r := faultyRetriever(t, cfg, facts)

	// Health sampler: poll pool invariants concurrently with the workers.
	stop := make(chan struct{})
	samplerDone := make(chan error, 1)
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := r.Health()
			if h.Leased > h.Boards {
				samplerDone <- fmt.Errorf("leased %d > %d boards", h.Leased, h.Boards)
				return
			}
			if h.Free+h.Leased+h.Tripped > h.Boards {
				samplerDone <- fmt.Errorf("free %d + leased %d + tripped %d > %d boards",
					h.Free, h.Leased, h.Tripped, h.Boards)
				return
			}
			for _, u := range h.Units {
				if u.Tripped && u.Leased {
					samplerDone <- fmt.Errorf("slot %d both tripped and leased", u.Slot)
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	modes := []SearchMode{ModeSoftware, ModeFS1, ModeFS2, ModeFS1FS2}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var mu sync.Mutex
	var degradedRuns, retriedRuns int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*iters + i) % facts
				goal := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", k))
				rt, err := r.Retrieve(goal, modes[(w+i)%len(modes)])
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: lost retrieval: %v", w, i, err)
					return
				}
				trueU, _, err := rt.Evaluate()
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: evaluate: %v", w, i, err)
					return
				}
				if trueU != 1 {
					errs <- fmt.Errorf("worker %d iter %d: true unifiers = %d, want 1 (mode %v, degraded %q)",
						w, i, trueU, rt.Mode, rt.Stats.Degraded)
					return
				}
				mu.Lock()
				if rt.Stats.Degraded != "" {
					degradedRuns++
				}
				if rt.Stats.Retries > 0 {
					retriedRuns++
				}
				mu.Unlock()
			}
		}(w)
	}

	// Watchdog: the soak must terminate — a stuck lease or a lost wakeup
	// shows up here instead of as a test-binary timeout.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos soak deadlocked (watchdog)")
	}
	close(stop)
	if err, ok := <-samplerDone; ok && err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	h := r.Health()
	if h.Leased != 0 {
		t.Fatalf("units still leased after the run: %+v", h)
	}
	if r.cfg.Faults.Injected() == 0 {
		t.Fatal("chaos run injected no faults (rules misconfigured?)")
	}
	t.Logf("soak: %d retrievals, %d injected faults, %d degraded, %d retried, health %+v",
		workers*iters, r.cfg.Faults.Injected(), degradedRuns, retriedRuns, h)
}

// TestChaosParallelScan hammers the partitioned columnar scan from many
// goroutines on a native-engine retriever while the disk.read injection
// site misbehaves, with the partition threshold lowered so every
// retrieval really fans out across scan workers. The properties:
//
//   - no lost candidates: every retrieval (degraded or not) still
//     contains its one true unifier, and fault-free retrievals return
//     exactly the serial reference's candidate addresses;
//   - scan-pool invariants hold under concurrent sampling: live helper
//     workers never exceed the pool bound;
//   - no deadlock: a stuck pool handoff shows up on the watchdog, not
//     as a test-binary timeout.
//
// CI runs this under -race: concurrent retrievals share one ScanPool,
// so the sampler and the workers double as race probes on the
// submit/spawn/idle-exit paths.
func TestChaosParallelScan(t *testing.T) {
	goroutines, iters := 8, 50
	if testing.Short() {
		goroutines, iters = 4, 15
	}
	prev := scw.ParScanMinEntries
	scw.ParScanMinEntries = 64
	t.Cleanup(func() { scw.ParScanMinEntries = prev })

	const facts = 1024
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.ScanWorkers = 8
	cfg.RetryBackoff = time.Microsecond
	cfg.Faults = fault.New(20260808).
		Add(fault.Rule{Site: fault.SiteDiskRead, Probability: 0.10}).
		Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 0.05})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := make([]ClauseTerm, facts)
	for i := range clauses {
		clauses[i] = ClauseTerm{Head: term.New("married_couple",
			term.Atom(fmt.Sprintf("husband%d", i)), term.Atom(fmt.Sprintf("wife%d", i)))}
	}
	if _, err := r.AddClauses("family", clauses); err != nil {
		t.Fatal(err)
	}
	// Fault-free serial reference for exact candidate comparison.
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AddClauses("family", clauses); err != nil {
		t.Fatal(err)
	}

	pool := r.scanPool
	if pool == nil {
		t.Fatal("native retriever has no scan pool")
	}
	maxLive := pool.MaxHelpers() + 1 // +1 for a transient idle-exit re-admission
	stop := make(chan struct{})
	samplerDone := make(chan error, 1)
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if live := pool.LiveWorkers(); live > maxLive {
				samplerDone <- fmt.Errorf("scan pool live workers %d > bound %d", live, maxLive)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	chaosModes := []SearchMode{ModeFS1, ModeFS1FS2}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*iters + i) % facts
				goal := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", k))
				mode := chaosModes[(w+i)%len(chaosModes)]
				rt, err := r.Retrieve(goal, mode)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: lost retrieval: %v", w, i, err)
					return
				}
				trueU, _, err := rt.Evaluate()
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: evaluate: %v", w, i, err)
					return
				}
				if trueU != 1 {
					errs <- fmt.Errorf("worker %d iter %d: true unifiers = %d, want 1 (degraded %q)",
						w, i, trueU, rt.Stats.Degraded)
					return
				}
				if rt.Stats.Degraded == "" && rt.Stats.Faults == 0 {
					// Clean run: candidates must match the serial
					// fault-free reference exactly — a dropped partition
					// or a mis-merged buffer shows up here.
					rrt, err := ref.Retrieve(goal, mode)
					if err != nil {
						errs <- err
						return
					}
					if len(rt.Candidates) != len(rrt.Candidates) {
						errs <- fmt.Errorf("worker %d iter %d: %d candidates, reference %d",
							w, i, len(rt.Candidates), len(rrt.Candidates))
						return
					}
					for c := range rt.Candidates {
						if rt.Candidates[c].Addr != rrt.Candidates[c].Addr {
							errs <- fmt.Errorf("worker %d iter %d: candidate %d addr %d, reference %d",
								w, i, c, rt.Candidates[c].Addr, rrt.Candidates[c].Addr)
							return
						}
					}
				}
			}
		}(w)
	}

	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		t.Fatal("parallel-scan chaos run deadlocked (watchdog)")
	}
	close(stop)
	if err, ok := <-samplerDone; ok && err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if r.cfg.Faults.Injected() == 0 {
		t.Fatal("chaos run injected no faults (rules misconfigured?)")
	}
	t.Logf("parallel chaos: %d retrievals, %d injected faults, pool live %d/%d",
		goroutines*iters, r.cfg.Faults.Injected(), pool.LiveWorkers(), maxLive)
}
