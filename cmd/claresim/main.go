// Command claresim runs queries through the CLARE retrieval pipeline and
// prints per-stage statistics: candidates after FS1 and FS2, false drops,
// simulated stage times and bytes moved — the observable behaviour of the
// §2 architecture on a real clause set.
//
// Usage:
//
//	claresim -kb family.pl [-mode fs1+fs2|fs1|fs2|software|auto|all] 'married_couple(S, S)'
//
// The KB file must hold clauses of a single predicate (use kbgen).
//
// The repeatable -fault flag arms deterministic fault injection
// (site[@key]=P or site[@key]=1/N, seeded by -fault-seed); the output
// then grows faults/retries/degraded columns showing which rung of the
// degradation ladder each retrieval landed on.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/plfile"
)

func main() {
	kbFile := flag.String("kb", "", "Prolog source file (any number of predicates)")
	store := flag.String("store", "", "compiled knowledge-base store (kbc output) instead of -kb")
	modeWord := flag.String("mode", "all", "search mode: software|fs1|fs2|fs1+fs2|auto|all")
	var faultSpecs multiFlag
	flag.Var(&faultSpecs, "fault", "arm a fault-injection rule, site[@key]=P or site[@key]=1/N[,limit=L] (repeatable)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault-injection schedule")
	flag.Parse()
	if (*kbFile == "") == (*store == "") || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: claresim (-kb file.pl | -store kb.clare) [-mode m] 'goal(...)'")
		os.Exit(2)
	}

	goal, err := parse.Term(flag.Arg(0))
	if err != nil {
		fatal("parsing goal: %v", err)
	}

	cfg := core.DefaultConfig()
	if len(faultSpecs) > 0 {
		inj := fault.New(*faultSeed)
		for _, spec := range faultSpecs {
			rule, err := fault.ParseRule(spec)
			if err != nil {
				fatal("%v", err)
			}
			inj.Add(rule)
		}
		cfg.Faults = inj
	}

	var r *core.Retriever
	if *store != "" {
		var err error
		if r, _, err = core.MapRetriever(cfg, *store); err != nil {
			fatal("loading store: %v", err)
		}
		defer r.CloseStore()
	} else {
		preds, err := plfile.ReadFile(*kbFile)
		if err != nil {
			fatal("%v", err)
		}
		r, err = core.New(cfg)
		if err != nil {
			fatal("%v", err)
		}
		for _, clauses := range preds {
			if _, err := r.AddClauses("kb", clauses); err != nil {
				fatal("loading: %v", err)
			}
		}
	}

	var modes []core.SearchMode
	var auto bool
	switch *modeWord {
	case "all":
		modes = []core.SearchMode{core.ModeSoftware, core.ModeFS1, core.ModeFS2, core.ModeFS1FS2}
	case "auto":
		auto = true
	default:
		m, err := crs.ParseMode(*modeWord)
		if err != nil {
			fatal("%v", err)
		}
		modes = []core.SearchMode{*m}
	}
	if auto {
		pred, err := r.Predicate(goal)
		if err != nil {
			fatal("%v", err)
		}
		m := core.ChooseMode(goal, pred)
		fmt.Printf("heuristic selected mode: %v\n", m)
		modes = []core.SearchMode{m}
	}

	injecting := len(faultSpecs) > 0
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "mode\tclauses\tafter FS1\tafter FS2\ttrue\tfalse drops\tFS1 scan\tdisk\tFS2 match\ttotal (sim)"
	if injecting {
		header += "\tfaults\tretries\tdegraded"
	}
	fmt.Fprintln(w, header)
	for _, m := range modes {
		rt, err := r.Retrieve(goal, m)
		if err != nil {
			fatal("retrieve (%v): %v", m, err)
		}
		trueU, falseD, err := rt.Evaluate()
		if err != nil {
			fatal("%v", err)
		}
		s := rt.Stats
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%v",
			m, s.TotalClauses, s.AfterFS1, s.AfterFS2, trueU, falseD,
			s.FS1Scan.Round(10e3), s.DiskFetch.Round(10e3), s.FS2Match.Round(10e3), s.Total.Round(10e3))
		if injecting {
			degraded := s.Degraded
			if degraded == "" {
				degraded = "-"
			}
			fmt.Fprintf(w, "\t%d\t%d\t%s", s.Faults, s.Retries, degraded)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "claresim: "+format+"\n", args...)
	os.Exit(1)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
