package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clare/internal/fault"
	"clare/internal/parse"
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
