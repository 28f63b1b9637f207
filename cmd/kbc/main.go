// Command kbc is the knowledge-base compiler: it compiles Prolog predicate
// files into a binary CLARE store (PIF clause files + SCW+MB secondary
// indexes + shared symbol table) that loads without re-parsing — the
// "compiled clause file" path of §2.1.
//
// Usage:
//
//	kbc -o kb.clare family.pl emp.pl     # compile
//	kbc -info kb.clare                   # inspect a store
//
// Partitioned (cluster) build: -shards N splits the store into N shard
// slices, each holding the predicates the cluster shard function
// (rendezvous hashing by predicate indicator) places there, written as
// shard-<i>.clare under -shard-out. Each slice is an ordinary store —
// crsd -kb loads it unchanged — and carries the full shared symbol
// table, so a crsrouter over the slices answers exactly like one crsd
// over the whole store:
//
//	kbc -shards 4 -shard-out build/ family.pl emp.pl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"clare/internal/cluster"
	"clare/internal/core"
	"clare/internal/plfile"
	"clare/internal/term"
)

func main() {
	out := flag.String("o", "kb.clare", "output store file")
	info := flag.String("info", "", "inspect an existing store instead of compiling")
	shards := flag.Int("shards", 0, "also write a partitioned build with this many shard slices")
	shardOut := flag.String("shard-out", ".", "directory for shard-<i>.clare slices (with -shards)")
	flag.Parse()

	if *info != "" {
		inspect(*info)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: kbc -o kb.clare pred1.pl pred2.pl ...  |  kbc -info kb.clare")
		os.Exit(2)
	}

	r, err := core.New(core.DefaultConfig())
	if err != nil {
		fatal("%v", err)
	}
	for _, file := range flag.Args() {
		preds, err := plfile.ReadFile(file)
		if err != nil {
			fatal("%v", err)
		}
		module := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
		for _, clauses := range preds {
			pred, err := r.AddClauses(module, clauses)
			if err != nil {
				fatal("compiling %s: %v", file, err)
			}
			fmt.Printf("compiled %s %s: %d clauses, %d B clause file, %d B index\n", file,
				clauses[0].Head.Indicator(), pred.File.Len(), pred.File.SizeBytes(), pred.File.IndexSizeBytes())
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	if err := r.SaveKB(f); err != nil {
		fatal("writing %s: %v", *out, err)
	}
	st, err := f.Stat()
	if err == nil {
		fmt.Printf("wrote %s (%d bytes)\n", *out, st.Size())
	}

	if *shards > 0 {
		if err := writeShards(r, *shards, *shardOut); err != nil {
			fatal("%v", err)
		}
	}
}

// writeShards writes one store slice per shard, selected by the same
// shard function the router routes with.
func writeShards(r *core.Retriever, n int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.clare", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		kept := 0
		err = r.SaveKBPartition(f, func(pi core.Indicator) bool {
			mine := cluster.ShardOf(pi.String(), n) == i
			if mine {
				kept++
			}
			return mine
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d predicates (%d bytes)\n", path, kept, st.Size())
	}
	return nil
}

func inspect(path string) {
	r, _, err := core.MapRetriever(core.DefaultConfig(), path)
	if err != nil {
		fatal("loading %s: %v", path, err)
	}
	defer r.CloseStore()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "predicate\tclauses\trules\tmasked\tclause file\tindex")
	for _, pi := range r.Predicates() {
		args := make([]term.Term, pi.Arity)
		for i := range args {
			args[i] = term.NewVar("_")
		}
		pred, err := r.Predicate(term.New(pi.Functor, args...))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(w, "%s:%v\t%d\t%d\t%d\t%d B\t%d B\n",
			pred.File.Module, pi, pred.File.Len(), pred.RuleCount, pred.MaskedClauses,
			pred.File.SizeBytes(), pred.File.IndexSizeBytes())
	}
	w.Flush()
	fmt.Printf("symbols: %d\n", r.Symbols().Len())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kbc: "+format+"\n", args...)
	os.Exit(1)
}
