package main

import (
	"fmt"
	"time"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/workload"
)

// planWorkload is the mixed goal set with the predicates it runs over.
type planWorkload struct {
	preds []workload.Predicate
	goals []term.Term
}

func buildPlanWorkload() planWorkload {
	rel := workload.Relation{Name: "plrel", Facts: 4096, Domain: 400, Arity: 2, Seed: 7}
	rules := workload.Rules{Name: "plrule", Rules: 300, Facts: 60, Seed: 3}
	fam := workload.Family{Couples: 600, SameEvery: 24}
	w := planWorkload{preds: []workload.Predicate{
		{Name: "plrel", Clauses: rel.Clauses()},
		{Name: "plrule", Clauses: rules.Clauses()},
		{Name: "married_couple", Clauses: fam.Clauses()},
	}}
	shared := parse.MustTerm("married_couple(S, S)")
	const rounds = 25
	for i := 0; i < rounds; i++ {
		// 4 selective fact probes : 2 rule-predicate probes : 1 shared-var
		// goal : 1 all-variable scan per round.
		for k := 0; k < 4; k++ {
			w.goals = append(w.goals, rel.Probe((4*i+k)%rel.Domain))
		}
		w.goals = append(w.goals,
			term.New("plrule", term.Atom(fmt.Sprintf("c%d", i%60)), term.NewVar("V")),
			term.New("plrule", term.Atom(fmt.Sprintf("c%d", (i+17)%60)), term.NewVar("V")),
			shared,
			term.New("plrel", term.NewVar("X"), term.NewVar("Y")),
		)
	}
	return w
}

func (w planWorkload) load(r *core.Retriever) error {
	for _, p := range w.preds {
		if _, err := r.AddClauses("plan", p.Clauses); err != nil {
			return err
		}
	}
	return nil
}

// funnelCost is one query's end-to-end simulated cost: the retrieval
// plus the host unification its candidates still owe downstream.
// Software mode performed the host matching inside the retrieval, so
// its candidates owe nothing.
func funnelCost(rt *core.Retrieval, mode core.SearchMode, hostUnit time.Duration) time.Duration {
	c := rt.Stats.Total
	if mode != core.ModeSoftware {
		c += time.Duration(len(rt.Candidates)) * hostUnit
	}
	return c
}

// observe folds a clean retrieval into the planner's statistics store.
// Degraded or faulted runs price the failure ladder, not the mode, so
// they stay out of the learned profile.
func observe(pl *Planner, rt *core.Retrieval) {
	st := &rt.Stats
	if st.Degraded != "" || st.Faults != 0 {
		return
	}
	pl.Observe(rt.Predicate, ShapeOf(rt.Goal), rt.Mode, Observation{
		TotalClauses: st.TotalClauses,
		AfterFS1:     st.AfterFS1,
		AfterFS2:     st.AfterFS2,
		Sim:          st.Total,
	})
}

// expPLAN evaluates the adaptive cost-based planner's mode selection on
// a mixed workload no single static mode suits — selective ground probes
// over a fact relation (FS1 territory), ground probes over a
// rule-intensive predicate whose masked index entries defeat FS1 (FS2
// territory), the shared-variable married_couple(S,S) pathology (§2.1:
// the codeword filter passes everything), and all-variable scans (any
// filter is pure overhead). Every query runs under each static mode and
// under the planner; the scoreboard is end-to-end simulated cost — the
// retrieval's simulated time plus the host unification the returned
// candidates still owe (at the simulator's own SoftwareMatchCost;
// software mode already paid it in-retrieval). The planner must reach at
// least 0.9× the best static mode; on a genuinely mixed workload it
// should beat it, because no static mode wins every family.
func expPLAN() error {
	w := buildPlanWorkload()
	hostUnit := core.DefaultConfig().SoftwareMatchCost
	modes := []core.SearchMode{core.ModeSoftware, core.ModeFS1, core.ModeFS2, core.ModeFS1FS2}

	// One retriever serves both sides. The planner is primed by observing
	// the static passes (what a warmed-up server has seen), then decides
	// the mode of every goal in a last pass, observing each clean run.
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	if err := w.load(r); err != nil {
		return err
	}
	pl := newPlanner()
	tw := tab()
	fmt.Fprintln(tw, "strategy\tqueries\tsim cost\tsim queries/s")
	best, worst := 0.0, 0.0
	for _, m := range modes {
		var total time.Duration
		for _, g := range w.goals {
			rt, err := r.Retrieve(g, m)
			if err != nil {
				return err
			}
			observe(pl, rt)
			total += funnelCost(rt, m, hostUnit)
		}
		qps := float64(len(w.goals)) / total.Seconds()
		if best == 0 || qps > best {
			best = qps
		}
		if worst == 0 || qps < worst {
			worst = qps
		}
		fmt.Fprintf(tw, "static %s\t%d\t%v\t%.0f\n", m, len(w.goals), total.Round(time.Microsecond), qps)
	}

	var total time.Duration
	for _, g := range w.goals {
		pred, err := r.Predicate(g)
		if err != nil {
			return err
		}
		pi := core.Indicator{Functor: pred.File.Functor, Arity: pred.File.Arity}
		m := pl.Decide(pi.String(), ShapeOf(g), pred.File.Len(), pred.MaskedClauses).Mode
		rt, err := r.Retrieve(g, m)
		if err != nil {
			return err
		}
		observe(pl, rt)
		total += funnelCost(rt, m, hostUnit)
	}
	qps := float64(len(w.goals)) / total.Seconds()
	fmt.Fprintf(tw, "planner\t%d\t%v\t%.0f\n", len(w.goals), total.Round(time.Microsecond), qps)
	if err := tw.Flush(); err != nil {
		return err
	}

	ctr := pl.Counters()
	fmt.Fprintf(out, "\nplanner decisions: ")
	for pm := core.SearchMode(0); pm < numModes; pm++ {
		fmt.Fprintf(out, "%s=%d ", pm, ctr.ByMode[pm])
	}
	fmt.Fprintf(out, "(shared-var codeword skips %d, observations %d)\n", ctr.SharedVarSkips, ctr.Observations)
	fmt.Fprintf(out, "planner %.2fx the best static mode, %.2fx the worst (>= 0.9x best required)\n",
		qps/best, qps/worst)
	if ctr.SharedVarSkips == 0 {
		return fmt.Errorf("PLAN: no shared-variable goal skipped the codeword filter")
	}
	if qps < 0.9*best {
		return fmt.Errorf("PLAN: planner %.0f sim qps under 0.9x the best static mode (%.0f)", qps, best)
	}
	return nil
}
