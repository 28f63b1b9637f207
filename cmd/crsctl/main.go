// Command crsctl is a command-line client for the Clause Retrieval Server
// daemon (crsd): it runs one retrieval and prints the candidate clauses
// and the server's stage statistics.
//
// Usage:
//
//	crsctl -addr 127.0.0.1:7071 -mode fs1+fs2 'married_couple(S, S)'
//	crsctl -explain 'married_couple(S, S)'
//	crsctl -assert 'married_couple(romeo, juliet)'
//	crsctl -retract 'married_couple(romeo, juliet)'
//
// -assert and -retract ride the autocommit WRITE verb, which works
// unchanged against a single crsd (durable when it runs with -wal-dir)
// and against a crsrouter front-end (routed to the owning shard's
// primary and shipped to its replicas). -assert-tx stages the clause in
// an explicit BEGIN/ASSERT/COMMIT transaction instead.
//
// Diagnosis:
//
//	crsctl -flight 20          # newest flight-recorder records
//	crsctl -stats              # service counters
//	crsctl -trace 'married_couple(S, S)'   # also print the span tree
//
// All three work against crsd and crsrouter alike. A server records a
// span tree only for a request that carries a trace context; -trace
// sends a fresh one with the retrieval (or -explain) and prints the tree
// the reply carries — through crsrouter, the stitched route → shard →
// net → retrieve tree. Against the router, -flight shows the
// routing-level records; a traced call's record carries the trace ID its
// backend call joined, and the backend's record of that call prints the
// same ID as caller=<id>. A slow retrieval is a flight record with a
// large wall time; -explain on its goal prices it on the modelled
// hardware.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"time"

	"clare/internal/crs"
	"clare/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7071", "crsd address")
	mode := flag.String("mode", "auto", "search mode: software|fs1|fs2|fs1+fs2|auto")
	assert := flag.String("assert", "", "clause to assert through the autocommit write path instead of querying")
	retract := flag.String("retract", "", "clause to retract (first match) through the autocommit write path")
	assertTx := flag.String("assert-tx", "", "clause to assert in an explicit transaction instead of querying")
	stats := flag.Bool("stats", false, "print the server's service counters and exit")
	explain := flag.Bool("explain", false, "profile the retrieval instead of printing candidates")
	flight := flag.Int("flight", -1, "print the newest N flight-recorder records and exit (0 = all)")
	timeout := flag.Duration("timeout", crs.DefaultTimeout, "per-operation wire timeout (0 disables)")
	trace := flag.Bool("trace", false, "send a fresh trace context with the retrieval or -explain and print the span tree of the reply")
	flag.Parse()

	c, err := crs.DialTimeout(*addr, *timeout)
	if err != nil {
		fatal("%v", err)
	}
	defer c.Close()

	if *stats {
		kv, err := c.Stats()
		if err != nil {
			fatal("%v", err)
		}
		printStats(kv)
		return
	}

	if *flight >= 0 {
		recs, err := c.Flight(*flight)
		if err != nil {
			fatal("flight: %v", err)
		}
		printFlight(recs)
		return
	}

	if *assert != "" {
		seq, err := c.AssertNow(strings.TrimSuffix(*assert, "."))
		if err != nil {
			fatal("assert: %v", err)
		}
		fmt.Printf("asserted (seq %d).\n", seq)
		return
	}

	if *retract != "" {
		seq, err := c.Retract(strings.TrimSuffix(*retract, "."))
		if err != nil {
			fatal("retract: %v", err)
		}
		fmt.Printf("retracted (seq %d).\n", seq)
		return
	}

	if *assertTx != "" {
		if err := c.Begin(); err != nil {
			fatal("begin: %v", err)
		}
		if err := c.Assert(*assertTx); err != nil {
			fatal("assert: %v", err)
		}
		if err := c.Commit(); err != nil {
			fatal("commit: %v", err)
		}
		fmt.Println("committed.")
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crsctl [-addr a] [-mode m] [-explain] [-trace] 'goal(...)'  |  crsctl -assert|-retract 'clause'")
		os.Exit(2)
	}

	var tc *telemetry.TraceContext
	if *trace {
		tc = &telemetry.TraceContext{TraceID: max(rand.Uint64(), 1)}
	}

	if *explain {
		res, err := c.ExplainTraced(*mode, flag.Arg(0), tc)
		if err != nil {
			fatal("%v", err)
		}
		printExplain(res)
		printTrace(tc, res.Spans)
		return
	}

	res, err := c.RetrieveTraced(*mode, flag.Arg(0), tc)
	if err != nil {
		fatal("%v", err)
	}
	for _, cl := range res.Clauses {
		fmt.Println(cl)
	}
	fmt.Println("% " + res.Stats)
	printTrace(tc, res.Spans)
}

// printTrace renders a traced reply's span tree as comment lines, one
// span per line, each child indented under its parent: name, wall time
// and attrs in key order. Nothing is printed for an untraced call.
func printTrace(tc *telemetry.TraceContext, spans []telemetry.WireSpan) {
	if tc == nil {
		return
	}
	if len(spans) == 0 {
		fmt.Printf("%% trace %016x: no span tree in the reply\n", tc.TraceID)
		return
	}
	fmt.Printf("%% trace %016x\n", tc.TraceID)
	ids := make(map[int]bool, len(spans))
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	children := make(map[int][]telemetry.WireSpan)
	var roots []telemetry.WireSpan
	for _, sp := range spans {
		if ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var walk func(sp telemetry.WireSpan, depth int)
	walk = func(sp telemetry.WireSpan, depth int) {
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		line := fmt.Sprintf("%% %s%s  %v", strings.Repeat("  ", depth), sp.Name,
			time.Duration(sp.Wall).Round(100*time.Nanosecond))
		for _, k := range keys {
			line += "  " + k + "=" + sp.Attrs[k]
		}
		fmt.Println(line)
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, sp := range roots {
		walk(sp, 0)
	}
}

// printExplain renders the EXPLAIN profile in wire order (the filter
// pipeline's), with a blank line between key families so the rungs read
// as sections.
func printExplain(res *crs.ExplainResult) {
	prev := ""
	for _, e := range res.Entries {
		family, _, _ := strings.Cut(e.Key, ".")
		if prev != "" && family != prev {
			fmt.Println()
		}
		prev = family
		fmt.Printf("%-24s %s\n", e.Key, e.Value)
	}
}

// statsSections groups the known service-counter families for
// rendering. Keys no section recognises — e.g. cluster.* overlay keys a
// newer router may add — are NOT dropped: they land in a sorted "other"
// section at the end.
var statsSections = []struct {
	title string
	match func(k string) bool
}{
	{"service", func(k string) bool {
		switch k {
		case "sessions", "degraded", "retries", "faults":
			return true
		}
		return false
	}},
	{"served", func(k string) bool { return strings.HasPrefix(k, "served.") }},
	{"qcache", func(k string) bool { return strings.HasPrefix(k, "qcache.") }},
	{"wal", func(k string) bool { return strings.HasPrefix(k, "wal.") }},
	{"flight", func(k string) bool { return strings.HasPrefix(k, "flight.") }},
	{"store", func(k string) bool { return strings.HasPrefix(k, "store.") }},
	{"cluster", func(k string) bool { return strings.HasPrefix(k, "cluster.") }},
}

func printStats(kv map[string]int64) {
	taken := make(map[string]bool, len(kv))
	section := func(title string, keys []string) {
		if len(keys) == 0 {
			return
		}
		sort.Strings(keys)
		fmt.Printf("[%s]\n", title)
		for _, k := range keys {
			fmt.Printf("%-24s %d\n", k, kv[k])
		}
	}
	for _, s := range statsSections {
		var keys []string
		for k := range kv {
			if !taken[k] && s.match(k) {
				taken[k] = true
				keys = append(keys, k)
			}
		}
		section(s.title, keys)
	}
	var other []string
	for k := range kv {
		if !taken[k] {
			other = append(other, k)
		}
	}
	section("other", other)
}

// printFlight renders flight-recorder records one per line, newest
// last: sequence, start time, predicate, mode, the candidate funnel
// (total→fs1→fs2), wall time and the optional decision/flag columns.
func printFlight(recs []telemetry.FlightRecord) {
	if len(recs) == 0 {
		fmt.Println("flight recorder empty (is the server running with -flight?)")
		return
	}
	for _, r := range recs {
		line := fmt.Sprintf("#%-6d %s  %-20s %-8s %6d→%d→%d  %8s",
			r.Seq, time.Unix(0, r.TS).Format("15:04:05.000"), r.Predicate, r.Mode,
			r.Total, r.AfterFS1, r.AfterFS2,
			time.Duration(r.WallNS).Round(time.Microsecond))
		if r.Plan != "" {
			line += "  plan=" + r.Plan
		}
		if r.TraceID != 0 {
			line += fmt.Sprintf("  trace=%016x", r.TraceID)
		}
		if r.CallerTraceID != 0 {
			line += fmt.Sprintf("  caller=%016x", r.CallerTraceID)
		}
		if r.Degraded != "" {
			line += "  degraded=" + r.Degraded
		}
		if r.Faults > 0 {
			line += fmt.Sprintf("  faults=%d", r.Faults)
		}
		if r.Err != "" {
			line += fmt.Sprintf("  err=%q", r.Err)
		}
		fmt.Println(line)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crsctl: "+format+"\n", args...)
	os.Exit(1)
}
