// Command clarebench prints the paper ledger: every table and figure of
// the paper's evaluation regenerated from the simulation, in simulated
// time only, so two runs print the same bytes. The full output is
// committed as testdata/ledger.golden and `go test ./cmd/clarebench`
// fails on any difference; after a deliberate change to the model,
// regenerate it with
//
//	go run ./cmd/clarebench > cmd/clarebench/testdata/ledger.golden
//
// Usage:
//
//	clarebench              # the whole ledger
//	clarebench -exp T1      # one section: T1 F6-F12 F1 TA1 R1 R2 D1 D2 M1 W1 CONC L15 B1 WCS OPS AB1 AB2 FLT PLAN
//	clarebench -exp M1,W1   # a comma-separated subset
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// out is where every section prints; the ledger test points it at a
// buffer.
var out io.Writer = os.Stdout

type experiment struct {
	id    string
	title string
	run   func() error
}

var experiments = []experiment{
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
	{"L15", "§2.2 — matching levels 1–5 selectivity/cost trade-off", expL15},
	{"B1", "Refs [6,7] — PDBM database benchmark suite", expB1},
	{"WCS", "§3.1 — assembled Writable Control Store microprogram", expWCS},
	{"OPS", "§3.3 — hardware-operation profile per workload", expOPS},
	{"AB1", "Ablation — SCW mask bits on/off", expAB1},
	{"AB2", "Ablation — double vs single buffering", expAB2},
	{"FLT", "Fault injection — degraded-mode retrieval ladder", expFLT},
	{"PLAN", "Adaptive planner — cost-based mode selection", expPLAN},
}

// runLedger prints the sections named in ids (a comma-separated list, or
// "all") to out, in ledger order.
func runLedger(ids string) error {
	want := map[string]bool{}
	if !strings.EqualFold(ids, "all") {
		for _, id := range strings.Split(ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				want[strings.ToUpper(id)] = false
			}
		}
	}
	for _, e := range experiments {
		if len(want) > 0 {
			if _, ok := want[e.id]; !ok {
				continue
			}
			want[e.id] = true
		}
		fmt.Fprintf(out, "\n## %s: %s\n\n", e.id, e.title)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	for id, ran := range want {
		if !ran {
			have := make([]string, len(experiments))
			for i, e := range experiments {
				have[i] = e.id
			}
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(have, " "))
		}
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "section id, a comma-separated list of them, or 'all'")
	flag.Parse()
	if err := runLedger(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "clarebench: %v\n", err)
		os.Exit(1)
	}
}
