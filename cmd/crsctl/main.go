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
// Diagnosis commands:
//
//	crsctl -flight 20          # newest flight-recorder records
//	crsctl -slow-tail 5        # newest slow-query captures with profiles
//	crsctl -slo                # SLO burn-rate summary from STATS
//
// All three work against crsd and crsrouter alike — against the router,
// -flight shows the routing-level records and -slo the cluster-wide
// burn recomputed from the backends' summed SLO windows.
package main

import (
	"flag"
	"fmt"
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
	slowTail := flag.Int("slow-tail", -1, "print the newest N slow-query captures and exit (0 = all)")
	slo := flag.Bool("slo", false, "print the server's SLO burn-rate summary and exit")
	timeout := flag.Duration("timeout", crs.DefaultTimeout, "per-operation wire timeout (0 disables)")
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

	if *slowTail >= 0 {
		caps, err := c.SlowTail(*slowTail)
		if err != nil {
			fatal("slowlog: %v", err)
		}
		printSlowTail(caps)
		return
	}

	if *slo {
		kv, err := c.Stats()
		if err != nil {
			fatal("%v", err)
		}
		printSLO(kv)
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
		fmt.Fprintln(os.Stderr, "usage: crsctl [-addr a] [-mode m] [-explain] 'goal(...)'  |  crsctl -assert|-retract 'clause'")
		os.Exit(2)
	}

	if *explain {
		res, err := c.Explain(*mode, flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		printExplain(res)
		return
	}

	res, err := c.Retrieve(*mode, flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	for _, cl := range res.Clauses {
		fmt.Println(cl)
	}
	fmt.Println("% " + res.Stats)
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
	{"latency", func(k string) bool { return strings.HasPrefix(k, "latency.") }},
	{"wal", func(k string) bool { return strings.HasPrefix(k, "wal.") }},
	{"flight", func(k string) bool { return strings.HasPrefix(k, "flight.") }},
	{"slow", func(k string) bool { return strings.HasPrefix(k, "slow.") }},
	{"slo", func(k string) bool { return strings.HasPrefix(k, "slo.") }},
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
		if r.Degraded != "" {
			line += "  degraded=" + r.Degraded
		}
		if r.Faults > 0 {
			line += fmt.Sprintf("  faults=%d", r.Faults)
		}
		if r.Hedged {
			line += "  hedged"
		}
		if r.Err != "" {
			line += fmt.Sprintf("  err=%q", r.Err)
		}
		fmt.Println(line)
	}
}

// printSlowTail renders slow-query captures oldest first, each with its
// captured EXPLAIN profile indented under the header line.
func printSlowTail(caps []telemetry.SlowCapture) {
	if len(caps) == 0 {
		fmt.Println("slow-query log empty (is the server running with -slow-ms or -slow-p99x?)")
		return
	}
	for i, c := range caps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("#%d %s  %s  mode=%s  wall=%s  threshold=%s",
			c.Seq, time.Unix(0, c.TS).Format("15:04:05.000"), c.Predicate, c.Mode,
			time.Duration(c.WallNS).Round(time.Microsecond),
			time.Duration(c.ThresholdNS).Round(time.Microsecond))
		if c.TraceID != 0 {
			fmt.Printf("  trace=%016x", c.TraceID)
		}
		fmt.Println()
		fmt.Printf("  goal: %s\n", c.Goal)
		for _, kv := range c.Profile {
			fmt.Printf("  %-24s %s\n", kv.Key, kv.Value)
		}
	}
}

// printSLO renders the slo.* STATS keys as a burn-rate summary — the
// milli-scaled wire integers become decimals again. Works against crsd
// (its own tracker) and crsrouter (cluster-wide recompute) alike.
func printSLO(kv map[string]int64) {
	if kv["slo.enabled"] == 0 {
		fmt.Println("no SLO armed (is the server running with -slo?)")
		return
	}
	obj := []string{}
	if us := kv["slo.p99.us"]; us > 0 {
		obj = append(obj, fmt.Sprintf("p99=%s", time.Duration(us)*time.Microsecond))
	}
	if pm := kv["slo.err.permille"]; pm > 0 {
		obj = append(obj, fmt.Sprintf("err=%.1f%%", float64(pm)/10))
	}
	fmt.Printf("objective    %s\n", strings.Join(obj, ","))
	fmt.Printf("requests     %d  (slow %d, errors %d, breaches %d)\n",
		kv["slo.requests"], kv["slo.slow"], kv["slo.errors"], kv["slo.breaches"])
	fmt.Printf("burn short   %.3f  (%d requests in window)\n",
		float64(kv["slo.burn.short.milli"])/1000, kv["slo.window.short.requests"])
	fmt.Printf("burn long    %.3f  (%d requests in window)\n",
		float64(kv["slo.burn.long.milli"])/1000, kv["slo.window.long.requests"])
	if kv["slo.breach.active"] > 0 {
		fmt.Println("BREACH ACTIVE: short-window burn over the fast-burn threshold")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crsctl: "+format+"\n", args...)
	os.Exit(1)
}
