package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"clare/internal/scw"
	"clare/internal/term"
	"clare/internal/termgen"
)

// inPlaceSubject is one retriever whose p/3 is written in place.
type inPlaceSubject struct {
	name string
	r    *Retriever
	pred *Predicate
}

// genClause draws one p/3 clause and a goal related to its head: a third
// variable-free facts, a third heads as generated (variables, open lists,
// in-line and heap structures), a third rules whose bodies share the
// head's variables.
func genClause(g *termgen.Gen, rng *rand.Rand) (ClauseTerm, term.Term) {
	goal, head := g.Pair("p", 3)
	switch rng.Intn(3) {
	case 0:
		return ClauseTerm{Head: g.Ground(head)}, goal
	case 1:
		return ClauseTerm{Head: head}, goal
	}
	return ClauseTerm{Head: head, Body: term.New(",", term.New("q", g.Term(2), g.Var()), term.New("r", g.Term(1)))}, goal
}

// TestInPlaceEqualsRebuild drives seeded random interleavings of
// Predicate.Append and Predicate.Remove over a builder-built and a
// store-loaded predicate, on both engines, and after every step holds the
// written file against a fresh build over the surviving clause list:
// MarshalBinary byte for byte, every record's address, position, size and
// head-stream words, the counts, the columnar view against the entry
// scan, and one retrieval's candidates and statistics — sim against the
// rebuild, native against sim. Candidates taken before a write must read
// the same after it.
func TestInPlaceEqualsRebuild(t *testing.T) {
	const steps = 2000
	for _, loaded := range []bool{false, true} {
		name := "built"
		if loaded {
			name = "loaded"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inPlaceRun(t, 17, loaded, steps)
		})
	}
}

func inPlaceRun(t *testing.T, seed int64, loaded bool, steps int) {
	g := termgen.New(seed)
	rng := rand.New(rand.NewSource(seed))
	var survivors []ClauseTerm
	probe, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.AddClauses("gen", []ClauseTerm{{Head: term.New("p", term.Atom("a"), term.Atom("b"), term.Atom("c"))}}); err != nil {
		t.Fatal(err)
	}
	probePred := probe.preds[Indicator{"p", 3}]
	draw := func() (ClauseTerm, term.Term) {
		for {
			cl, goal := genClause(g, rng)
			if _, err := probePred.Compile(cl.Head, cl.Body); err == nil {
				return cl, goal
			}
		}
	}
	for len(survivors) < 60 {
		cl, _ := draw()
		survivors = append(survivors, cl)
	}

	simCfg, natCfg := DefaultConfig(), DefaultConfig()
	natCfg.Engine = EngineNative
	var subjects []*inPlaceSubject
	var storePath string
	var storeImage []byte
	if loaded {
		src, err := New(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.AddClauses("gen", survivors); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := src.SaveKB(&buf); err != nil {
			t.Fatal(err)
		}
		storeImage = buf.Bytes()
		storePath = filepath.Join(t.TempDir(), "gen.clare")
		if err := os.WriteFile(storePath, storeImage, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"sim", simCfg}, {"native", natCfg}} {
			r, _, err := MapRetriever(c.cfg, storePath)
			if err != nil {
				t.Fatal(err)
			}
			defer r.CloseStore()
			subjects = append(subjects, &inPlaceSubject{name: c.name, r: r})
		}
	} else {
		sim, native := buildEnginePair(t, simCfg, "gen", survivors)
		subjects = []*inPlaceSubject{{name: "sim", r: sim}, {name: "native", r: native}}
	}
	pi := Indicator{"p", 3}
	for _, s := range subjects {
		s.pred = s.r.preds[pi]
	}
	sim, native := subjects[0], subjects[1]
	// rebuilt takes a fresh build of the surviving clauses after every
	// step. It interns into the sim subject's symbol table; the native
	// subject's is a separate table that sees the same clauses and goals in
	// the same order, so its files must come out the same bytes too — two
	// stores fed one log are one store.
	rebuilt, err := NewWithSymbols(simCfg, sim.r.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	native.pred.File.Index().Columnar() // built before the first write: kept in step from here on

	open := term.New("p", term.NewVar("A"), term.NewVar("B"), term.NewVar("C"))
	lines := func(rt *Retrieval) string {
		out, err := rt.AppendCandidateLines(nil, "")
		if err != nil {
			t.Fatal(err)
		}
		// Anonymous variables print with a fresh id on every rendering.
		return genName.ReplaceAllString(string(out), "_G")
	}
	var held *Retrieval
	var heldLines string
	removeThenAppend, lastWasRemove := 0, false
	for step := 0; step < steps; step++ {
		if step%25 == 0 {
			// Everything, through the engine the CRS serves with, held
			// across the writes that follow.
			if held, err = native.r.Retrieve(open, ModeFS1); err != nil {
				t.Fatal(err)
			}
			if len(held.Candidates) != len(survivors) {
				t.Fatalf("step %d: open goal returned %d of %d clauses", step, len(held.Candidates), len(survivors))
			}
			heldLines = lines(held)
		}
		_, goal := draw()
		appendProb := 0.5 + float64(64-len(survivors))/200
		if len(survivors) <= 1 || rng.Float64() < appendProb {
			cl, related := draw()
			goal = related
			for _, s := range subjects {
				c, err := s.pred.Compile(cl.Head, cl.Body)
				if err != nil {
					t.Fatalf("step %d %s: compile %v: %v", step, s.name, cl.Head, err)
				}
				s.pred.Append(c)
			}
			survivors = append(survivors, cl)
			if lastWasRemove {
				removeThenAppend++
			}
			lastWasRemove = false
		} else {
			i := rng.Intn(len(survivors))
			switch rng.Intn(4) {
			case 0:
				i = 0
			case 1:
				i = len(survivors) - 1
			}
			for _, s := range subjects {
				if err := s.pred.Remove(i); err != nil {
					t.Fatalf("step %d %s: remove %d: %v", step, s.name, i, err)
				}
			}
			survivors = slices.Delete(survivors, i, i+1)
			lastWasRemove = true
		}
		if got := lines(held); got != heldLines {
			t.Fatalf("step %d: candidates held across a write changed:\n got %s\nwant %s", step, got, heldLines)
		}

		want, err := rebuilt.AddClauses("gen", survivors)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subjects {
			sameFile(t, fmt.Sprintf("step %d %s", step, s.name), s.pred, want)
		}

		if step%7 == 0 {
			goal = open
		}
		mode := modes()[rng.Intn(len(modes()))]
		label := fmt.Sprintf("step %d %v %v", step, mode, goal)
		qd, err := native.r.ienc.EncodeQuery(goal)
		if err == nil {
			ix := native.pred.File.Index()
			var buf scw.ScanBuf
			ix.Columnar().ScanInto(qd, &buf)
			scan := ix.Scan(qd)
			if got := ix.Columnar().AppendAddrs(nil, buf.Pos); !slices.Equal(got, scan.Addrs) || buf.MaskedHits != scan.MaskedHits {
				t.Fatalf("%s: columnar scan %v (%d masked), entry scan %v (%d masked)", label, got, buf.MaskedHits, scan.Addrs, scan.MaskedHits)
			}
		}
		wantRT, wantErr := rebuilt.Retrieve(goal, mode)
		gotRT, gotErr := sim.r.Retrieve(goal, mode)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: in place err %v, rebuilt err %v", label, gotErr, wantErr)
		}
		if wantErr == nil {
			gotRT.Stats.QueryCacheHit, wantRT.Stats.QueryCacheHit = false, false
			if !reflect.DeepEqual(gotRT.Stats, wantRT.Stats) {
				t.Fatalf("%s: stats in place %+v, rebuilt %+v", label, gotRT.Stats, wantRT.Stats)
			}
			if got, want := lines(gotRT), lines(wantRT); got != want {
				t.Fatalf("%s: candidates in place\n%s\nrebuilt\n%s", label, got, want)
			}
			for i, sc := range gotRT.Candidates {
				if w := wantRT.Candidates[i]; sc.Addr != w.Addr || sc.Seq != w.Seq || sc.SizeBytes != w.SizeBytes {
					t.Fatalf("%s: candidate %d in place %d/%d/%d, rebuilt %d/%d/%d", label, i,
						sc.Addr, sc.Seq, sc.SizeBytes, w.Addr, w.Seq, w.SizeBytes)
				}
			}
		}
		diffRetrieve(t, sim.r, native.r, goal, mode)
	}
	if removeThenAppend == 0 {
		t.Fatal("no remove was followed by an append")
	}

	if loaded {
		// The image the writes ran over is as it was saved, and a second
		// mapping of it is the store before any of them.
		onDisk, err := os.ReadFile(storePath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, storeImage) {
			t.Fatal("writes reached the store file")
		}
		fresh, _, err := MapRetriever(simCfg, storePath)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.CloseStore()
		var again bytes.Buffer
		if err := fresh.SaveKB(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), storeImage) {
			t.Fatal("a second mapping of the image does not save back to it: writes reached the mapped bytes")
		}
	}
}

// sameFile holds a written predicate against a fresh build of the same
// clause list over an equal symbol table.
func sameFile(t *testing.T, label string, got, want *Predicate) {
	t.Helper()
	gb, err := got.File.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.File.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: file written in place marshals to %d bytes that differ from the rebuild's %d", label, len(gb), len(wb))
	}
	gf, wf := got.File, want.File
	if gf.Len() != wf.Len() || gf.SizeBytes() != wf.SizeBytes() || gf.IndexSizeBytes() != wf.IndexSizeBytes() ||
		got.RuleCount != want.RuleCount || got.MaskedClauses != want.MaskedClauses {
		t.Fatalf("%s: in place %d clauses %d+%d bytes %d rules %d masked, rebuilt %d clauses %d+%d bytes %d rules %d masked", label,
			gf.Len(), gf.SizeBytes(), gf.IndexSizeBytes(), got.RuleCount, got.MaskedClauses,
			wf.Len(), wf.SizeBytes(), wf.IndexSizeBytes(), want.RuleCount, want.MaskedClauses)
	}
	addrs := make([]uint32, gf.Len())
	for i, sc := range gf.All() {
		w := wf.All()[i]
		if sc.Addr != w.Addr || sc.Seq != w.Seq || sc.SizeBytes != w.SizeBytes {
			t.Fatalf("%s: record %d in place %d/%d/%d, rebuilt %d/%d/%d", label, i, sc.Addr, sc.Seq, sc.SizeBytes, w.Addr, w.Seq, w.SizeBytes)
		}
		ga, gg := gf.HeadArgs(i)
		wa, wg := wf.HeadArgs(i)
		if !slices.Equal(ga, wa) || gg != wg || !slices.Equal(ga, sc.Head.Args) {
			t.Fatalf("%s: head stream of clause %d: in place %v (ground %v), rebuilt %v (ground %v), record %v", label, i, ga, gg, wa, wg, sc.Head.Args)
		}
		addrs[i] = sc.Addr
	}
	byAddr, err := gf.ByAddrs(addrs)
	if err != nil || !slices.Equal(byAddr, gf.All()) {
		t.Fatalf("%s: ByAddrs over every address: %v", label, err)
	}
	if _, err := gf.ByAddrs([]uint32{uint32(gf.SizeBytes())}); err == nil {
		t.Fatalf("%s: ByAddrs found a record at the end of the file", label)
	}
}

// BenchmarkApplyWrite prices one write to a live predicate of n facts on
// the native engine, columnar view built as a serving daemon has it: an
// in-place append (compile included), an in-place remove of the oldest of
// the last four clauses (the write_mix retract), and the whole-predicate
// rebuild that used to serve both. One op is one write: the in-place cost
// must not grow with n, the rebuild's does.
func BenchmarkApplyWrite(b *testing.B) {
	const batch = 64 // writes between untimed restorations of the file's length
	fact := func(i int) ClauseTerm {
		return ClauseTerm{Head: term.New("p", term.Atom(fmt.Sprintf("w%d", i)), term.Int(100000000+i))}
	}
	for _, n := range []int{320, 32000} {
		clauses := make([]ClauseTerm, n)
		for i := range clauses {
			clauses[i] = fact(i)
		}
		live := func(b *testing.B) (*Retriever, *Predicate) {
			cfg := DefaultConfig()
			cfg.Engine = EngineNative
			r, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pred, err := r.AddClauses("bench", clauses)
			if err != nil {
				b.Fatal(err)
			}
			pred.File.Index().Columnar()
			return r, pred
		}
		add := func(b *testing.B, pred *Predicate, i int) {
			cl := fact(n + i)
			c, err := pred.Compile(cl.Head, cl.Body)
			if err != nil {
				b.Fatal(err)
			}
			pred.Append(c)
		}
		b.Run(fmt.Sprintf("append/%d", n), func(b *testing.B) {
			_, pred := live(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				add(b, pred, i)
				if pred.File.Len() == n+batch {
					b.StopTimer()
					for pred.File.Len() > n {
						if err := pred.Remove(pred.File.Len() - 1); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
		})
		b.Run(fmt.Sprintf("remove-oldest-of-4/%d", n), func(b *testing.B) {
			_, pred := live(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pred.File.Len() <= n+4 {
					b.StopTimer()
					for j := 0; j < batch; j++ {
						add(b, pred, i+j)
					}
					b.StartTimer()
				}
				if err := pred.Remove(pred.File.Len() - 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/%d", n), func(b *testing.B) {
			r, _ := live(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.AddClauses("bench", clauses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
