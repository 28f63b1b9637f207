// Command bench is the repository's end-to-end wire benchmark: real
// crs.Client connections over loopback TCP into an in-process
// cluster.Server/cluster.Router in front of two in-process crs.Server
// shards running the native engine. See README.md beside this file.
//
//	go run ./bench -seed 1                 every workload, each in a fresh process
//	go run ./bench -seed 1 -trace 1        … followed by each workload's traced pass
//	go run ./bench -workload big_scan -seed 1 -seconds 8 -trace 0
//	                                       one run; the last line of standard
//	                                       output is its result as one JSON object
//	go run ./bench compare A.json B.json   two result files, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// defaultSeconds is the measured window of one run, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 8

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload in this process and print its result line (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed for the knowledge base, the goal streams and the open-loop schedule")
	seconds := flag.Float64("seconds", defaultSeconds, "measured window of a run, cut into 10 rounds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass (with -workload: instead of the end-to-end pass; without: after it)")
	smoke := flag.Bool("smoke", false, "tiny knowledge base, for a quick end-to-end check")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result files, traces and the run's temporary store and log")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-smoke]  |  bench compare A.json B.json")
		os.Exit(2)
	}
	sh := fullShape
	if *smoke {
		sh = smokeShape
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *smoke, *out))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	d, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, shape: sh, outDir: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := writeJSON(detailPath(*out, *name, *seed, *trace == 1), d); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	printDetail(d)
	line, err := json.Marshal(resultLine(d))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !d.Correct {
		os.Exit(1)
	}
}

// resultLine is the object a single run ends its standard output with:
// exactly correct, attempted, failed and metrics, each metric a value
// and a unit.
func resultLine(d *runDetail) map[string]any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]vu, len(d.Metrics))
	for name, m := range d.Metrics {
		metrics[name] = vu{m.Value, m.Unit}
	}
	return map[string]any{"correct": d.Correct, "attempted": d.Attempted, "failed": d.Failed, "metrics": metrics}
}

func detailPath(out, workload string, seed int64, traced bool) string {
	pass := "e2e"
	if traced {
		pass = "traced"
	}
	return filepath.Join(out, fmt.Sprintf("run-%s-seed%d-%s.json", workload, seed, pass))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printDetail prints every metric of one run by name with its unit, and
// the gates, to standard error (standard output ends with the result
// line alone).
func printDetail(d *runDetail) {
	pass := "end-to-end"
	if d.Traced {
		pass = "traced"
	}
	fmt.Fprintf(os.Stderr, "== %s  seed %d  %s pass  %gs  (load %.2f, %s)\n", d.Workload, d.Seed, pass, d.Seconds, d.Env.LoadAvg1, d.Env.GitSHA)
	names := make([]string, 0, len(d.Metrics))
	for name := range d.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	for _, name := range names {
		m := d.Metrics[name]
		spread := ""
		if len(m.Rounds) > 0 {
			spread = fmt.Sprintf("±%.4g MAD over %d rounds, %d samples", m.MAD, len(m.Rounds), m.N)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", name, m.Value, m.Unit, spread)
	}
	tw.Flush()
	gates := make([]string, 0, len(d.Gates))
	for g := range d.Gates {
		gates = append(gates, g)
	}
	sort.Strings(gates)
	for _, g := range gates {
		fmt.Fprintf(os.Stderr, "  gate %s: %s\n", g, d.Gates[g])
	}
	failedShare := 0.0
	if d.Attempted > 0 {
		failedShare = float64(d.Failed) / float64(d.Attempted)
	}
	fmt.Fprintf(os.Stderr, "  failed_share %g (%d of %d)\n", failedShare, d.Failed, d.Attempted)
}

// resultFile is what a full run leaves behind and `bench compare` reads.
type resultFile struct {
	Env  envStamp     `json:"env"`
	Runs []*runDetail `json:"runs"`
}

// runAll runs every workload in a fresh child process each (so one
// workload's heap, caches and peak RSS never colour the next), gathers
// the children's records into one result file and returns the exit code.
func runAll(seed int64, seconds float64, traced, smoke bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	res := &resultFile{}
	code := 0
	for _, w := range workloads {
		for _, pass := range passes {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", out, "-trace", "0"}
			if pass {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			child := exec.Command(self, args...)
			child.Stderr = os.Stderr // the child's table; its result line is re-read from its record
			if err := child.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				code = 1
			}
			var d runDetail
			data, err := os.ReadFile(detailPath(out, w.name, seed, pass))
			if err == nil {
				err = json.Unmarshal(data, &d)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s left no record: %v\n", w.name, err)
				code = 1
				continue
			}
			if len(res.Runs) == 0 {
				res.Env = d.Env
			}
			res.Runs = append(res.Runs, &d)
		}
	}
	path := filepath.Join(out, fmt.Sprintf("result-seed%d.json", seed))
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return code
}
