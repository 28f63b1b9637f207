// Command clarebench regenerates every table and figure of the paper's
// evaluation from the simulation, printing paper-vs-measured tables.
// EXPERIMENTS.md is this program's output, recorded.
//
// Usage:
//
//	clarebench                 # run every experiment
//	clarebench -exp T1         # one experiment: T1 F1 F6..F12 TA1 R1 R2 D1 D2 M1 W1 L15 CONC NATIVE AB1 AB2 FLT CLUSTER WRITE PLAN
//	clarebench -exp CONC,NATIVE # a comma-separated subset
//	clarebench -json           # also write machine-readable BENCH_<gitsha>.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func() error
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	jsonOut := flag.Bool("json", false, "write recorded metrics to BENCH_<gitsha>.json")
	jsonPath := flag.String("json-out", "", "explicit output path for -json (overrides the default name)")
	flag.Parse()

	exps := []experiment{
		{"T1", "Table 1 — execution times of the FS2 hardware functions", expT1},
		{"F6-F12", "Figures 6–12 — per-route timing calculations", expFigures},
		{"F1", "Figure 1 — partial test unification algorithm behaviour", expF1},
		{"TA1", "Table A1 — PIF data-type scheme conformance", expTA1},
		{"R1", "§4 — FS2 worst-case rate vs disk delivery rate", expR1},
		{"R2", "§2.1/§4 — FS1 scan rate and secondary-file size ratio", expR2},
		{"D1", "§2.1 — false-drop sources: truncation and codeword width", expD1},
		{"D2", "§2.1 — the shared-variable pathology (married_couple(S,S))", expD2},
		{"M1", "§2.2 — the four CRS search modes", expM1},
		{"W1", "§1 — Warren-scale knowledge base sweep", expW1},
		{"CONC", "Multi-board chassis — concurrent retrieval scaling", expCONC},
		{"NATIVE", "Native vectorized engine vs simulation — wall-clock throughput", expNATIVE},
		{"L15", "§2.2 — matching levels 1–5 selectivity/cost trade-off", expL15},
		{"B1", "Refs [6,7] — PDBM database benchmark suite", expB1},
		{"WCS", "§3.1 — assembled Writable Control Store microprogram", expWCS},
		{"OPS", "§3.3 — hardware-operation profile per workload", expOPS},
		{"AB1", "Ablation — SCW mask bits on/off", expAB1},
		{"AB2", "Ablation — double vs single buffering", expAB2},
		{"FLT", "Fault injection — degraded-mode retrieval ladder", expFLT},
		{"CLUSTER", "Sharded cluster — scatter-gather throughput and replica failover", expCLUSTER},
		{"WRITE", "Durable replicated writes — assert/retract churn under retrieval load", expWRITE},
		{"PLAN", "Adaptive planner — cost-based mode selection and hedged tail latency", expPLAN},
	}

	// -exp accepts a comma-separated list of ids; "all" runs everything.
	want := map[string]bool{}
	if !strings.EqualFold(*exp, "all") {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				want[strings.ToUpper(id)] = false
			}
		}
	}
	for _, e := range exps {
		if len(want) > 0 {
			if _, ok := want[strings.ToUpper(e.id)]; !ok {
				continue
			}
			want[strings.ToUpper(e.id)] = true
		}
		fmt.Printf("\n## %s: %s\n\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "clarebench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
	for id, ran := range want {
		if !ran {
			ids := make([]string, len(exps))
			for i, e := range exps {
				ids[i] = e.id
			}
			sort.Strings(ids)
			fmt.Fprintf(os.Stderr, "clarebench: unknown experiment %q (have %s)\n", id, strings.Join(ids, " "))
			os.Exit(2)
		}
	}
	if *jsonOut {
		path := *jsonPath
		if path == "" {
			path = benchPath(*exp)
		}
		if err := writeJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "clarebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d metrics)\n", path, recordedCount())
	}
}

// benchPath names the default -json output file after the git commit, so
// successive CI runs accumulate a perf trajectory (BENCH_<sha>.json per
// commit) instead of overwriting one BENCH_<exp>.json. Outside a git
// checkout the experiment id is the fallback stamp.
func benchPath(exp string) string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	stamp := strings.TrimSpace(string(out))
	if err != nil || stamp == "" {
		stamp = strings.NewReplacer("/", "_", ",", "_").Replace(exp)
	}
	return fmt.Sprintf("BENCH_%s.json", stamp)
}
