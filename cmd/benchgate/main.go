// Command benchgate is the in-tree perf-regression gate: it compares a
// fresh clarebench -json run against the last committed BENCH_*.json
// baseline and fails (exit 1) when a throughput metric regresses beyond
// its threshold.
//
// Usage:
//
//	go run ./cmd/clarebench -exp CONC,NATIVE -json -json-out /tmp/fresh.json
//	go run ./cmd/benchgate -fresh /tmp/fresh.json
//
// Only throughput metrics gate. Simulated throughput (unit "queries/s")
// is deterministic — same code, same numbers — so it gates tight
// (-threshold, default 10%). Wall-clock throughput (units
// "wall-queries/s" and "wall-writes/s") varies with the machine, so it
// gates loose (-wall-threshold, default 50%) and is meant to catch
// order-of-magnitude collapses of the native fast path or the durable
// write path, not noise. Metrics present on only
// one side are reported but never fail the gate (experiments come and
// go); a missing baseline is a clean pass so the gate can bootstrap on
// the commit that introduces it.
//
// Two absolute floors exist on top of the baseline comparison. The
// partitioned columnar scan's NATIVE/par_speedup_w8 metric must reach
// -par-speedup-floor (default 1.6x over serial) — but only when the
// fresh run's own gomaxprocs header is at least 8, because on a host
// with fewer cores the configured workers cannot run simultaneously and
// the honest curve hovers at or below 1x. On small hosts the floor is
// reported as skipped, never failed. And the adaptive planner's
// PLAN/plan_vs_best metric must reach -plan-floor (default 0.9x the
// best static mode): the planner is allowed a small learning tax but
// must never lose badly to a mode a static config could have pinned.
// The planner scoreboard is simulated cost, so this floor is
// deterministic and applies on any host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// report mirrors the fields of clarebench's benchReport that the gate
// reads; unknown fields are ignored so the formats can evolve apart.
type report struct {
	Generated  string `json:"generated"`
	GitSHA     string `json:"git_sha"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Metrics    []struct {
		Experiment string  `json:"experiment"`
		Name       string  `json:"name"`
		Value      float64 `json:"value"`
		Unit       string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	fresh := flag.String("fresh", "", "fresh clarebench -json output to gate (required)")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json (default: latest committed in -dir)")
	dir := flag.String("dir", ".", "directory holding committed BENCH_*.json baselines")
	threshold := flag.Float64("threshold", 0.10, "max allowed regression for simulated throughput (queries/s)")
	wallThreshold := flag.Float64("wall-threshold", 0.50, "max allowed regression for wall-clock throughput (wall-queries/s)")
	parFloor := flag.Float64("par-speedup-floor", 1.6, "min NATIVE/par_speedup_w8 when the fresh run had gomaxprocs >= 8")
	planFloorVal := flag.Float64("plan-floor", 0.9, "min PLAN/plan_vs_best — the planner vs the best static mode")
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -fresh fresh.json [-baseline BENCH_x.json] [-dir .] [-threshold 0.10] [-wall-threshold 0.50]")
		os.Exit(2)
	}

	cur, err := load(*fresh)
	if err != nil {
		fatal("%v", err)
	}
	basePath := *baseline
	if basePath == "" {
		if basePath, err = latestBaseline(*dir, *fresh); err != nil {
			fatal("%v", err)
		}
		if basePath == "" {
			fmt.Printf("benchgate: no committed BENCH_*.json under %s — nothing to gate against (pass)\n", *dir)
			return
		}
	}
	base, err := load(basePath)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("benchgate: %s (fresh) vs %s (baseline %s, generated %s)\n",
		*fresh, basePath, orDash(base.GitSHA), base.Generated)
	failures, compared := gate(os.Stdout, cur, base, *threshold, *wallThreshold)
	if !speedupFloor(os.Stdout, cur, *parFloor) {
		failures++
	}
	if !planFloor(os.Stdout, cur, *planFloorVal) {
		failures++
	}
	if failures > 0 {
		fatal("%d of %d throughput metrics regressed beyond threshold", failures, compared)
	}
	fmt.Printf("benchgate: %d throughput metrics within threshold\n", compared)
}

// speedupFloor enforces the absolute parallel-scan floor on the fresh
// run: NATIVE/par_speedup_w8 must reach floor when the run's gomaxprocs
// header is >= 8. On smaller hosts the floor is skipped — 8 configured
// scan workers cannot run simultaneously on fewer cores, so the honest
// measurement sits at or below 1x there.
func speedupFloor(w io.Writer, cur *report, floor float64) (ok bool) {
	for _, m := range cur.Metrics {
		if m.Experiment != "NATIVE" || m.Name != "par_speedup_w8" {
			continue
		}
		if cur.GOMAXPROCS < 8 {
			fmt.Fprintf(w, "  SKIP  NATIVE/par_speedup_w8 = %.2fx (gomaxprocs %d < 8, floor %.1fx not applicable)\n",
				m.Value, cur.GOMAXPROCS, floor)
			return true
		}
		if m.Value < floor {
			fmt.Fprintf(w, "  FAIL  NATIVE/par_speedup_w8 = %.2fx < floor %.1fx (gomaxprocs %d)\n",
				m.Value, floor, cur.GOMAXPROCS)
			return false
		}
		fmt.Fprintf(w, "  ok    NATIVE/par_speedup_w8 = %.2fx >= floor %.1fx (gomaxprocs %d)\n",
			m.Value, floor, cur.GOMAXPROCS)
		return true
	}
	return true
}

// planFloor enforces the absolute adaptive-planner floor on the fresh
// run: PLAN/plan_vs_best (planner throughput over the best static
// mode's, on the mixed workload) must reach floor. The scoreboard is
// simulated cost — deterministic on any host — so there is no
// small-host skip.
func planFloor(w io.Writer, cur *report, floor float64) (ok bool) {
	for _, m := range cur.Metrics {
		if m.Experiment != "PLAN" || m.Name != "plan_vs_best" {
			continue
		}
		if m.Value < floor {
			fmt.Fprintf(w, "  FAIL  PLAN/plan_vs_best = %.2fx < floor %.1fx\n", m.Value, floor)
			return false
		}
		fmt.Fprintf(w, "  ok    PLAN/plan_vs_best = %.2fx >= floor %.1fx\n", m.Value, floor)
		return true
	}
	return true
}

// gate compares the fresh run's throughput metrics against the baseline,
// printing one verdict line per metric, and reports how many regressed
// beyond their threshold.
func gate(w io.Writer, cur, base *report, threshold, wallThreshold float64) (failures, compared int) {
	type key struct{ exp, name string }
	baseVals := map[key]float64{}
	var baseOrder []key
	for _, m := range base.Metrics {
		if gated(m.Unit) {
			baseVals[key{m.Experiment, m.Name}] = m.Value
			baseOrder = append(baseOrder, key{m.Experiment, m.Name})
		}
	}
	for _, m := range cur.Metrics {
		if !gated(m.Unit) {
			continue
		}
		want, ok := baseVals[key{m.Experiment, m.Name}]
		if !ok {
			fmt.Fprintf(w, "  NEW   %s/%s = %.1f %s (no baseline)\n", m.Experiment, m.Name, m.Value, m.Unit)
			continue
		}
		delete(baseVals, key{m.Experiment, m.Name})
		compared++
		limit := threshold
		if m.Unit == "wall-queries/s" || m.Unit == "wall-writes/s" {
			limit = wallThreshold
		}
		drop := 0.0
		if want > 0 {
			drop = (want - m.Value) / want
		}
		verdict := "ok"
		if drop > limit {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "  %-5s %s/%s = %.1f %s vs %.1f (%+.1f%%, limit -%.0f%%)\n",
			verdict, m.Experiment, m.Name, m.Value, m.Unit, want, -drop*100, limit*100)
	}
	for _, k := range baseOrder {
		if _, ok := baseVals[k]; ok {
			fmt.Fprintf(w, "  GONE  %s/%s (in baseline only)\n", k.exp, k.name)
		}
	}
	return failures, compared
}

// gated reports whether a metric's unit marks it as a throughput number
// the gate compares. Wall-clock units (wall-queries/s, wall-writes/s)
// gate at the loose -wall-threshold.
func gated(unit string) bool {
	return unit == "queries/s" || unit == "wall-queries/s" || unit == "wall-writes/s"
}

// latestBaseline picks the committed BENCH_*.json with the largest
// generated timestamp (RFC3339 sorts lexically), skipping the fresh file
// itself; "" when none exists.
func latestBaseline(dir, fresh string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	freshAbs, _ := filepath.Abs(fresh)
	best, bestGen := "", ""
	for _, p := range paths {
		if abs, _ := filepath.Abs(p); abs == freshAbs {
			continue
		}
		r, err := load(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: warning: skipping %s: %v\n", p, err)
			continue
		}
		if r.Generated > bestGen {
			best, bestGen = p, r.Generated
		}
	}
	return best, nil
}

func load(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
