package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// verdict is compare's judgement of one (workload, metric) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// worseBy is how much worse cur is than base as a share of base (negative
// when it is better), given which direction is better.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// judge decides one row. A metric whose rounds spread wider than its
// bound on either side cannot resolve a shift of the bound's size: it is
// unresolved, unless every round of one side beats every round of the
// other, which no spread explains away. Otherwise the medians decide.
func judge(def metricDef, base, cur metricValue) verdict {
	spread := iqrShare(base.Rounds)
	if s := iqrShare(cur.Rounds); s > spread {
		spread = s
	}
	if spread > def.Bound && len(base.Rounds) > 0 && len(cur.Rounds) > 0 {
		curWins, baseWins := true, true
		for _, b := range base.Rounds {
			for _, c := range cur.Rounds {
				w := worseBy(b, c, def.Better)
				if w >= 0 {
					curWins = false
				}
				if w <= 0 {
					baseWins = false
				}
			}
		}
		switch {
		case curWins:
			return verdictOK
		case baseWins:
			return verdictRegressed
		}
		return verdictUnresolved
	}
	if worseBy(base.Value, cur.Value, def.Better) > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// endToEndRun finds a workload's end-to-end record in a result file.
func (r *resultFile) endToEndRun(workload string) *runDetail {
	for _, d := range r.Runs {
		if d.Workload == workload && !d.Traced {
			return d
		}
	}
	return nil
}

// compareMain prints, per (workload, end-to-end metric), base, new, their
// ratio with its base, the bound and the verdict. It exits 1 when any row
// regressed or any run was incorrect, 0 otherwise (unresolved rows are
// reported, not failed: they ask for longer runs, not for a revert).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	base, err := readResult(args[0])
	if err == nil {
		var cur *resultFile
		if cur, err = readResult(args[1]); err == nil {
			return compare(base, cur)
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 2
}

func compare(base, cur *resultFile) int {
	fmt.Printf("base %s (seed %d)   new %s (seed %d)\n", base.Env.GitSHA, base.Env.Seed, cur.Env.GitSHA, cur.Env.Seed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		b, c := base.endToEndRun(w.name), cur.endToEndRun(w.name)
		if b == nil || c == nil {
			fmt.Fprintf(tw, "%s\t(missing on one side)\t\t\t\t\t%s\n", w.name, verdictUnresolved)
			continue
		}
		if !b.Correct || !c.Correct {
			fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t\tmust be 0\t%s\n", w.name, b.Failed, b.Attempted, c.Failed, c.Attempted, verdictRegressed)
			code = 1
		}
		for _, def := range endToEnd {
			bm, cm := b.Metrics[def.Name], c.Metrics[def.Name]
			v := judge(def, bm, cm)
			if v == verdictRegressed {
				code = 1
			}
			ratio := 0.0
			if bm.Value != 0 {
				ratio = cm.Value / bm.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3f of %.6g\t%.2f\t%s\n",
				w.name, def.Name, bm.Value, bm.Unit, cm.Value, cm.Unit, ratio, bm.Value, def.Bound, v)
		}
	}
	tw.Flush()
	return code
}
