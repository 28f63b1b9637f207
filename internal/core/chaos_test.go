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
// injection site misbehaves at once, so retrievals queue for the board
// unit, retry on it and fall down every rung of the ladder throughout the
// run. The soak properties:
//
//   - no lost retrievals: Retrieve never returns an error for an
//     injected fault, whatever rung of the degradation ladder it lands on;
//   - soundness survives chaos: every retrieval's candidate set still
//     contains the one true unifier;
//   - no deadlock: the whole run finishes under a watchdog.
//
// CI runs this under -race.
func TestChaosSoak(t *testing.T) {
	workers, iters := 8, 60
	if testing.Short() {
		workers, iters = 4, 15
	}

	cfg := DefaultConfig()
	cfg.RetryBackoff = time.Microsecond
	cfg.Faults = fault.New(20260805).
		Add(fault.Rule{Site: fault.SiteFS2, Probability: 0.25}).
		Add(fault.Rule{Site: fault.SiteDiskRead, Probability: 0.05}).
		Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 0.10}).
		Add(fault.Rule{Site: fault.SiteBus, Probability: 0.05}).
		Add(fault.Rule{Site: fault.SiteRetrieve, Probability: 0.05})
	const facts = 60
	r := faultyRetriever(t, cfg, facts)

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

	// Watchdog: the soak must terminate — a board unit never let go shows
	// up here instead of as a test-binary timeout.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos soak deadlocked (watchdog)")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if r.cfg.Faults.Injected() == 0 {
		t.Fatal("chaos run injected no faults (rules misconfigured?)")
	}
	t.Logf("soak: %d retrievals, %d injected faults, %d degraded, %d retried",
		workers*iters, r.cfg.Faults.Injected(), degradedRuns, retriedRuns)
}
