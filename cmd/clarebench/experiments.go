package main

import (
	"fmt"
	"text/tabwriter"
	"time"

	"clare/internal/core"
	"clare/internal/disk"
	"clare/internal/fault"
	"clare/internal/fs2"
	"clare/internal/parse"
	"clare/internal/pdbmbench"
	"clare/internal/pif"
	"clare/internal/ptu"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/term"
	"clare/internal/unify"
	"clare/internal/workload"
)

func tab() *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

// expT1 derives Table 1 from the datapath routes and compares with the
// paper's values.
func expT1() error {
	paper := map[fs2.OpCode]int64{
		fs2.OpMatch:                105,
		fs2.OpDBStore:              95,
		fs2.OpQueryStore:           115,
		fs2.OpDBFetch:              105,
		fs2.OpQueryFetch:           170,
		fs2.OpDBCrossBoundFetch:    170,
		fs2.OpQueryCrossBoundFetch: 235,
	}
	order := []fs2.OpCode{fs2.OpMatch, fs2.OpDBStore, fs2.OpQueryStore, fs2.OpDBFetch,
		fs2.OpQueryFetch, fs2.OpDBCrossBoundFetch, fs2.OpQueryCrossBoundFetch}
	got := fs2.Table1()
	w := tab()
	fmt.Fprintln(w, "operation\tpaper (ns)\tmeasured (ns)\tmatch")
	for _, op := range order {
		ok := "YES"
		if got[op].Nanoseconds() != paper[op] {
			ok = "NO"
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%s\n", op, paper[op], got[op].Nanoseconds(), ok)
	}
	return w.Flush()
}

// expFigures prints the per-route timing calculations of Figures 6–12.
func expFigures() error {
	for _, op := range fs2.Breakdowns() {
		fmt.Fprintln(out, op.Breakdown())
	}
	return nil
}

// expF1 demonstrates the Figure 1 algorithm: each case of the algorithm
// exercised on a named example, with the decision shown.
func expF1() error {
	cases := []struct {
		label string
		q, h  string
	}{
		{"case 1: integers", "p(42)", "p(42)"},
		{"case 1: integers differ", "p(42)", "p(43)"},
		{"case 2: atoms", "p(wine)", "p(wine)"},
		{"case 2: floats differ", "p(2.5)", "p(3.5)"},
		{"case 3: structures, first level", "p(f(1))", "p(f(2))"},
		{"case 3: depth-2 invisible at level 3", "p(f(g(1)))", "p(f(g(2)))"},
		{"case 4: lists, lengths", "p([1,2])", "p([1,2,3])"},
		{"case 4: unlimited list", "p([1|T])", "p([1,2,3])"},
		{"case 5a/5b: db variable", "p(a, a)", "p(A, A)"},
		{"case 5c: db cross binding (§3.3.6 example)", "f(X, a, b)", "f(A, a, A)"},
		{"case 5c rejecting", "f(c, a, b)", "f(A, a, A)"},
		{"case 6a/6b: query variable", "p(X, X)", "p(a, a)"},
		{"case 6c: query cross binding", "p(X, X)", "p(A, b)"},
		{"case 6c rejecting", "p(X, X)", "p(c, b)"},
	}
	w := tab()
	fmt.Fprintln(w, "algorithm case\tquery\tclause head\tlevel3+xb\tfull unification")
	for _, c := range cases {
		qt, ht := parse.MustTerm(c.q), parse.MustTerm(c.h)
		got := ptu.Match(qt, ht, ptu.FS2Config)
		oracle := unify.Unifiable(qt, term.Rename(ht))
		fmt.Fprintf(w, "%s\t%s\t%s\t%v\t%v\n", c.label, c.q, c.h, got, oracle)
	}
	return w.Flush()
}

// expTA1 checks the PIF tag assignments against Table A1 and shows a
// disassembled example clause.
func expTA1() error {
	w := tab()
	fmt.Fprintln(w, "item\tpaper tag\tmeasured tag\tmatch")
	rows := []struct {
		name  string
		paper uint8
		got   pif.Tag
	}{
		{"Anonymous Var", 0x20, pif.TagAnonVar},
		{"First Query Var", 0x27, pif.TagFirstQV},
		{"Subsequent Query Var", 0x25, pif.TagSubQV},
		{"First DB Var", 0x26, pif.TagFirstDV},
		{"Subsequent DB Var", 0x24, pif.TagSubDV},
		{"Atom Pointer", 0x08, pif.TagAtomPtr},
		{"Float Pointer", 0x09, pif.TagFloatPtr},
		{"Integer In-line (0x1N)", 0x10, pif.Tag(pif.TagIntBase)},
		{"Structure In-line (011a aaaa)", 0x60, pif.GroupStructInline},
		{"Structure Pointer (010a aaaa)", 0x40, pif.GroupStructPtr},
		{"Terminated List In-line (111a aaaa)", 0xE0, pif.GroupListInline},
		{"Unterminated List In-line (101a aaaa)", 0xA0, pif.GroupUListInline},
		{"Terminated List Pointer (110a aaaa)", 0xC0, pif.GroupListPtr},
		{"Unterminated List Pointer (100a aaaa)", 0x80, pif.GroupUListPtr},
	}
	for _, r := range rows {
		ok := "YES"
		if uint8(r.got) != r.paper {
			ok = "NO"
		}
		fmt.Fprintf(w, "%s\t0x%02x\t0x%02x\t%s\n", r.name, r.paper, uint8(r.got), ok)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	syms := symtab.New()
	enc := pif.NewEncoder(syms)
	e, err := enc.Encode(parse.MustTerm("p(foo, 42, X, [a|T], f(X))"), pif.DBSide)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\nexample PIF compilation of p(foo, 42, X, [a|T], f(X)):")
	fmt.Fprintln(out, e)
	return nil
}

// expR1 reproduces the §4 rate comparison.
func expR1() error {
	wOp, wt := fs2.WorstCaseOp()
	w := tab()
	fmt.Fprintln(w, "quantity\tpaper\tmeasured")
	fmt.Fprintf(w, "worst-case operation\tQUERY_CROSS_BOUND_FETCH (235ns)\t%v (%v)\n", wOp, wt)
	fmt.Fprintf(w, "FS2 worst-case filter rate\t≈4.25 MB/s\t%.3f MB/s\n", fs2.WorstCaseRate()/1e6)
	fmt.Fprintf(w, "Fujitsu M2351A peak rate\t≈2 MB/s\t%.2f MB/s\n", disk.FujitsuM2351A.TransferRate/1e6)
	fmt.Fprintf(w, "Micropolis 1325 rate\t(slower, SCSI)\t%.2f MB/s\n", disk.Micropolis1325.TransferRate/1e6)
	faster := "YES"
	if fs2.WorstCaseRate() <= disk.FujitsuM2351A.TransferRate {
		faster = "NO"
	}
	fmt.Fprintf(w, "FS2 outruns the disk\tYES\t%s\n", faster)
	return w.Flush()
}

// expR2 shows the FS1 scan rate and the secondary/clause file size ratio.
func expR2() error {
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	rel := workload.Relation{Name: "emp", Facts: 8192, Domain: 512, Arity: 4, Seed: 21}
	pred, err := r.AddClauses("bench", rel.Clauses())
	if err != nil {
		return err
	}
	rt, err := r.Retrieve(rel.Probe(100), core.ModeFS1)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "quantity\tpaper\tmeasured")
	fmt.Fprintf(w, "FS1 scan rate\tup to 4.5 MB/s\t%.2f MB/s (hardware model)\n", scw.ScanRate/1e6)
	fmt.Fprintf(w, "secondary file size\t\"generally much smaller\"\t%d B vs %d B clause file (%.1f%%)\n",
		pred.File.IndexSizeBytes(), pred.File.SizeBytes(),
		100*float64(pred.File.IndexSizeBytes())/float64(pred.File.SizeBytes()))
	fmt.Fprintf(w, "index scan of %d entries\t—\t%v simulated\n", pred.File.Len(), rt.Stats.FS1Scan)
	fmt.Fprintf(w, "candidates after FS1\t—\t%d of %d\n", rt.Stats.AfterFS1, rt.Stats.TotalClauses)
	return w.Flush()
}

// expD1 sweeps arity past the 12-argument encoding limit and codeword
// width, measuring false drops after FS1 and after FS2.
func expD1() error {
	fmt.Fprintln(out, "arity sweep (facts differ only in their LAST argument; query is fully ground):")
	w := tab()
	fmt.Fprintln(w, "arity\tafter FS1\tafter FS1+FS2\ttrue\tFS1 false-drop %")
	for _, arity := range []int{4, 8, 12, 13, 16} {
		wf := workload.WideFacts{Name: "wide", Facts: 128, Arity: arity, DifferOnlyAt: arity - 1}
		r, err := core.New(core.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := r.AddClauses("b", wf.Clauses()); err != nil {
			return err
		}
		fs1, err := r.Retrieve(wf.Probe(0), core.ModeFS1)
		if err != nil {
			return err
		}
		both, err := r.Retrieve(wf.Probe(0), core.ModeFS1FS2)
		if err != nil {
			return err
		}
		fd := 100 * float64(fs1.Stats.AfterFS1-1) / 128
		fmt.Fprintf(w, "%d\t%d\t%d\t1\t%.1f%%\n", arity, fs1.Stats.AfterFS1, both.Stats.AfterFS2, fd)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(out, "\ncodeword width sweep (1024 facts over 512 keys; mean over 32 non-matching ground probes):")
	w = tab()
	fmt.Fprintln(w, "width (bits)\tmean candidates after FS1\tfalse-drop %")
	for _, width := range []int{8, 16, 24, 32, 48, 64} {
		enc, err := scw.NewEncoder(scw.Params{Width: width, BitsPerKey: 3, MaskBits: true})
		if err != nil {
			return err
		}
		rel := workload.Relation{Name: "emp", Facts: 1024, Domain: 512, Arity: 2, Seed: 5}
		ix := scw.NewIndex(enc)
		for i, c := range rel.Clauses() {
			if err := ix.Add(c.Head, uint32(i)); err != nil {
				return err
			}
		}
		total := 0
		const probes = 32
		for p := 0; p < probes; p++ {
			qd, err := enc.EncodeQuery(parse.MustTerm(fmt.Sprintf("emp(k%d, V)", 9000+p)))
			if err != nil {
				return err
			}
			total += len(ix.Scan(qd).Addrs)
		}
		mean := float64(total) / probes
		fmt.Fprintf(w, "%d\t%.1f\t%.2f%%\n", width, mean, 100*mean/1024)
	}
	return w.Flush()
}

// expD2 reproduces the married_couple(Same,Same) pathology end to end.
func expD2() error {
	fam := workload.Family{Couples: 1024, SameEvery: 32}
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	if _, err := r.AddClauses("family", fam.Clauses()); err != nil {
		return err
	}
	goal := parse.MustTerm("married_couple(S, S)")
	w := tab()
	fmt.Fprintln(w, "mode\tcandidates\ttrue unifiers\tfalse drops\tsimulated time")
	for _, m := range []core.SearchMode{core.ModeFS1, core.ModeFS2, core.ModeFS1FS2} {
		rt, err := r.Retrieve(goal, m)
		if err != nil {
			return err
		}
		trueU, falseD, err := rt.Evaluate()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%v\n", m, len(rt.Candidates), trueU, falseD, rt.Stats.Total.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "(paper: FS1 \"would result in the retrieval of the entire predicate\" — %d clauses; FS2's cross-binding check cuts it to the %d true couples)\n",
		fam.Couples, fam.SameNameCount())
	return w.Flush()
}

// expM1 compares the four search modes on fact- and rule-intensive KBs.
func expM1() error {
	run := func(label string, clauses []core.ClauseTerm, goal term.Term) error {
		fmt.Fprintf(out, "%s:\n", label)
		r, err := core.New(core.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := r.AddClauses("b", clauses); err != nil {
			return err
		}
		w := tab()
		fmt.Fprintln(w, "mode\tafter FS1\tafter FS2\ttrue\tFS1 scan\tdisk\tFS2 match\thost\ttotal (sim)")
		for _, m := range []core.SearchMode{core.ModeSoftware, core.ModeFS1, core.ModeFS2, core.ModeFS1FS2} {
			rt, err := r.Retrieve(goal, m)
			if err != nil {
				return err
			}
			trueU, _, err := rt.Evaluate()
			if err != nil {
				return err
			}
			s := rt.Stats
			us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
			fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
				m, s.AfterFS1, s.AfterFS2, trueU, us(s.FS1Scan), us(s.DiskFetch), us(s.FS2Match), us(s.HostMatch), us(s.Total))
		}
		if err := w.Flush(); err != nil {
			return err
		}
		pred, err := r.Predicate(goal)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "heuristic mode for this query: %v\n\n", core.ChooseMode(goal, pred))
		return nil
	}
	rel := workload.Relation{Name: "emp", Facts: 4096, Domain: 256, Arity: 3, Seed: 3}
	if err := run("fact-intensive predicate (4096 facts, selective ground probe)", rel.Clauses(), rel.Probe(17)); err != nil {
		return err
	}
	rules := workload.Rules{Name: "fly", Rules: 512, Facts: 512, Seed: 2}
	return run("rule-intensive mixed predicate (512 rules + 512 facts)", rules.Clauses(),
		parse.MustTerm("fly(c7, class0)"))
}

// expW1 sweeps the Warren-scale knowledge base.
func expW1() error {
	w := tab()
	fmt.Fprintln(w, "scale\tpredicates\tclauses\tKB bytes\tprobe candidates\tsim time/probe")
	for _, scale := range []float64{0.0002, 0.0005, 0.001, 0.002, 0.005} {
		wk := workload.WarrenKB{Scale: scale, Seed: 1}
		preds := wk.Generate()
		r, err := core.New(core.DefaultConfig())
		if err != nil {
			return err
		}
		clauses, bytes := 0, 0
		for _, p := range preds {
			pred, err := r.AddClauses("warren", p.Clauses)
			if err != nil {
				return err
			}
			clauses += len(p.Clauses)
			bytes += pred.File.SizeBytes()
		}
		goal := term.New(preds[0].Name, term.Atom("e1"), term.NewVar("V"))
		rt, err := r.Retrieve(goal, core.ModeFS1FS2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%g\t%d\t%d\t%d\t%d\t%v\n",
			scale, len(preds), clauses, bytes, len(rt.Candidates), rt.Stats.Total.Round(time.Microsecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	p, rl, f := (workload.WarrenKB{Scale: 1}).Dimensions()
	fmt.Fprintf(out, "(paper's full target: %d predicates, %d rules, %d facts, ≈30 MB)\n", p, rl, f)
	return nil
}

// expL15 sweeps the matching levels on a structured workload.
func expL15() error {
	s := workload.Structured{Name: "shape", Facts: 2048, DeepVariety: 3, Seed: 8}
	cls := s.Clauses()
	heads := make([]term.Term, len(cls))
	for i, c := range cls {
		heads[i] = c.Head
	}
	query := term.New("shape",
		term.NewVar("K"),
		term.New("point", term.Int(3), term.NewVar("Y"), term.New("depth", term.Int(1))),
		term.List(term.NewVar("T1"), term.Atom("tag2")))
	type row struct {
		ref ptu.Config
		hw  fs2.Microprogram
	}
	rows := []row{
		{ptu.Config{Level: ptu.Level1}, fs2.MPLevel1},
		{ptu.Config{Level: ptu.Level2}, fs2.MPLevel2},
		{ptu.Config{Level: ptu.Level3}, fs2.MPLevel3},
		{ptu.Config{Level: ptu.Level3, CrossBinding: true}, fs2.MPLevel3XB},
		{ptu.Config{Level: ptu.Level4}, fs2.MPLevel4},
		{ptu.Config{Level: ptu.Level5}, fs2.MPLevel5},
	}
	// The simulated board run per level.
	hwSurvivors := func(mp fs2.Microprogram) (int, error) {
		syms := symtab.New()
		enc := pif.NewEncoder(syms)
		e := fs2.New()
		e.SetMode(fs2.ModeMicroprogramming)
		if err := e.LoadMicroprogram(mp); err != nil {
			return 0, err
		}
		qe, err := enc.Encode(query, pif.QuerySide)
		if err != nil {
			return 0, err
		}
		e.SetMode(fs2.ModeSetQuery)
		if err := e.SetQuery(qe); err != nil {
			return 0, err
		}
		count := 0
		e.SetMode(fs2.ModeSearch)
		for start := 0; start < len(heads); start += fs2.ResultSlots {
			end := start + fs2.ResultSlots
			if end > len(heads) {
				end = len(heads)
			}
			var recs []fs2.Record
			for i := start; i < end; i++ {
				he, err := enc.Encode(heads[i], pif.DBSide)
				if err != nil {
					return 0, err
				}
				recs = append(recs, fs2.Record{Addr: uint32(i), Enc: he})
			}
			res, err := e.Search(recs)
			if err != nil {
				return 0, err
			}
			count += len(res.Matches)
		}
		return count, nil
	}
	w := tab()
	fmt.Fprintln(w, "matching level\treference candidates (of 2048)\tFS2-board candidates\ttrue unifiers\tfalse drops (ref)")
	for _, r := range rows {
		pass, trueU, falseD := ptu.FalseDropRate(query, heads, r.ref)
		hw, err := hwSurvivors(r.hw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\n", r.ref, pass, hw, trueU, falseD)
	}
	fmt.Fprintln(w, "(paper: levels 4–5 were rejected as too costly in hardware; level 3 + cross binding adopted.")
	fmt.Fprintln(w, " the simulated board runs them anyway — the what-if the 1989 hardware could not afford)")
	return w.Flush()
}

// expB1 runs the PDBM benchmark suite (refs [6,7]): selection scaling,
// join, update and the naive-reverse inference count.
func expB1() error {
	fmt.Fprintln(out, "selection: ground probe vs growing KB (refs [6,7]; the footnote's ≈60k-clause ceiling motivated PDBM):")
	pts, err := pdbmbench.Selection(
		[]int{1024, 4096, 16384},
		[]core.SearchMode{core.ModeSoftware, core.ModeFS1FS2})
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "clauses\tmode\tcandidates\ttrue\tsim time")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%v\n", p.Clauses, p.Mode, p.Candidates, p.TrueUnif, p.SimTime.Round(time.Microsecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	jr, err := pdbmbench.Join(512, 32)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\njoin: emp(512) ⋈ dept(32) through the engine: %d answers, %d inferences\n",
		jr.Answers, jr.Inferences)

	ur, err := pdbmbench.Update(1000, 8, 25)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "update: %d asserts in %d transactions → %d clauses (indexes rebuilt per commit)\n",
		ur.Asserted, ur.Transactions, ur.FinalClauses)

	lr, err := pdbmbench.NaiveReverse(30, 20)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "nrev(30)×20: %d inferences (host engine)\n", lr.Inferences)
	return nil
}

// expAB1 ablates the mask bits.
func expAB1() error {
	rules := workload.Rules{Name: "fly", Rules: 256, Facts: 256, Seed: 2}
	cls := rules.Clauses()
	goal := parse.MustTerm("fly(c3, class3)")
	w := tab()
	fmt.Fprintln(w, "configuration\tcandidates\tlost true unifiers\tsound")
	for _, mask := range []bool{true, false} {
		enc, err := scw.NewEncoder(scw.Params{Width: 64, BitsPerKey: 3, MaskBits: mask})
		if err != nil {
			return err
		}
		ix := scw.NewIndex(enc)
		for i, c := range cls {
			if err := ix.Add(c.Head, uint32(i)); err != nil {
				return err
			}
		}
		qd, err := enc.EncodeQuery(goal)
		if err != nil {
			return err
		}
		res := ix.Scan(qd)
		surviving := map[uint32]bool{}
		for _, a := range res.Addrs {
			surviving[a] = true
		}
		lost := 0
		for i, c := range cls {
			if unify.Unifiable(goal, term.Rename(c.Head)) && !surviving[uint32(i)] {
				lost++
			}
		}
		label, sound := "SCW+MB (paper)", "YES"
		if !mask {
			label = "plain SCW (no mask bits)"
		}
		if lost > 0 {
			sound = "NO"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", label, len(res.Addrs), lost, sound)
	}
	return w.Flush()
}

// expAB2 ablates the double buffer: per-clause pipelined streaming vs
// sequential transfer+match. On the paper's disks the filter outruns the
// disk and matching hides entirely; a hypothetical faster drive shows
// where the overlap starts to pay.
func expAB2() error {
	rel := workload.Relation{Name: "emp", Facts: 4096, Domain: 8, Arity: 3, Seed: 4}
	drives := []disk.Model{
		disk.FujitsuM2351A,
		{Name: "hypothetical 20 MB/s drive", TransferRate: 20e6, TrackBytes: 64 * 1024, RPM: 5400, AvgSeek: 12 * time.Millisecond},
	}
	w := tab()
	fmt.Fprintln(w, "drive\tdouble buffer (overlapped)\tsingle buffer (sequential)\tsaving")
	for _, d := range drives {
		cfg := core.DefaultConfig()
		cfg.Disk = d
		r, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := r.AddClauses("b", rel.Clauses()); err != nil {
			return err
		}
		rt, err := r.Retrieve(rel.Probe(2), core.ModeFS2)
		if err != nil {
			return err
		}
		double := rt.Stats.Total
		single := rt.Stats.DiskFetch + rt.Stats.FS2Match
		fmt.Fprintf(w, "%s\t%v\t%v\t%v (%.1f%%)\n", d.Name,
			double.Round(time.Microsecond), single.Round(time.Microsecond),
			(single - double).Round(time.Microsecond),
			100*float64(single-double)/float64(single))
	}
	fmt.Fprintln(w, "(on the paper's disks matching hides entirely behind the transfer — the §4 design point)")
	return w.Flush()
}

// expWCS assembles the paper's level-3 + cross-binding microprogram into
// its 64-bit WCS image and prints the listing and Map ROM occupancy —
// the host-visible face of §3.1's Writable Control Store.
func expWCS() error {
	prog, err := fs2.Assemble(fs2.MPLevel3XB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "WCS capacity: %d words × %d bits; program %q occupies %d words\n",
		fs2.WCSWords, fs2.MicrowordBits, prog.Name, len(prog.Words))
	fmt.Fprintf(out, "Map ROM: %d type-pair jump vectors installed\n\n", prog.ROM.Len())
	fmt.Fprintln(out, prog.Listing())
	return nil
}

// expOPS profiles which of the seven hardware operations each workload
// exercises — the op mix behind Table 1's execution times.
func expOPS() error {
	workloads := []struct {
		label string
		query string
		heads []string
	}{
		{"ground facts (MATCH only)", "p(a, 1)",
			[]string{"p(a, 1)", "p(b, 2)", "p(a, 3)"}},
		{"db variables (stores/fetches)", "p(a, a)",
			[]string{"p(A, A)", "p(A, B)", "p(X, k)"}},
		{"shared query vars (cross binding)", "p(S, S, S)",
			[]string{"p(A, A, c)", "p(x, y, z)", "p(A, b, A)"}},
	}
	order := []fs2.OpCode{fs2.OpMatch, fs2.OpDBStore, fs2.OpQueryStore, fs2.OpDBFetch,
		fs2.OpQueryFetch, fs2.OpDBCrossBoundFetch, fs2.OpQueryCrossBoundFetch}
	w := tab()
	fmt.Fprint(w, "workload")
	for _, op := range order {
		fmt.Fprintf(w, "\t%v", op)
	}
	fmt.Fprintln(w, "\tTUE time")
	for _, wl := range workloads {
		syms := symtab.New()
		enc := pif.NewEncoder(syms)
		e := fs2.New()
		e.SetMode(fs2.ModeMicroprogramming)
		if err := e.LoadMicroprogram(fs2.MPLevel3XB); err != nil {
			return err
		}
		q, err := enc.Encode(parse.MustTerm(wl.query), pif.QuerySide)
		if err != nil {
			return err
		}
		e.SetMode(fs2.ModeSetQuery)
		if err := e.SetQuery(q); err != nil {
			return err
		}
		var recs []fs2.Record
		for i, h := range wl.heads {
			he, err := enc.Encode(parse.MustTerm(h), pif.DBSide)
			if err != nil {
				return err
			}
			recs = append(recs, fs2.Record{Addr: uint32(i), Enc: he})
		}
		e.SetMode(fs2.ModeSearch)
		if _, err := e.Search(recs); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s", wl.label)
		for _, op := range order {
			fmt.Fprintf(w, "\t%d", e.Stats.OpCount(op))
		}
		fmt.Fprintf(w, "\t%v\n", e.Stats.MatchTime)
	}
	return w.Flush()
}

// expCONC sweeps the multi-board chassis: aggregate simulated retrieval
// throughput over the Warren-style KB for 1/2/4/8 boards × 1..16 clients.
// Service times come from real retrievals; the closed-system schedule
// (core.Makespan) turns them into the chassis' aggregate throughput.
// Candidates are verified identical to the single-board serial path.
func expCONC() error {
	const queries = 64
	wk := workload.WarrenKB{Scale: 0.001, Seed: 1}
	preds := wk.Generate()

	build := func(boards int) (*core.Retriever, error) {
		cfg := core.DefaultConfig()
		cfg.Boards = boards
		r, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		for _, p := range preds {
			if _, err := r.AddClauses("warren", p.Clauses); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	nGoals := len(preds)
	if nGoals > 8 {
		nGoals = 8
	}
	goals := make([]term.Term, nGoals)
	for i := range goals {
		goals[i] = term.New(preds[i].Name, term.Atom("e1"), term.NewVar("V"))
	}

	single, err := build(1)
	if err != nil {
		return err
	}
	reference := make([]string, nGoals)
	for i, g := range goals {
		rt, err := single.Retrieve(g, core.ModeFS1FS2)
		if err != nil {
			return err
		}
		reference[i] = fmt.Sprint(addrList(rt))
	}

	w := tab()
	fmt.Fprintln(w, "boards\tclients\tmakespan (sim)\tsim queries/s\tspeedup")
	var baseline float64
	for _, boards := range []int{1, 2, 4, 8} {
		r, err := build(boards)
		if err != nil {
			return err
		}
		service := make([]time.Duration, queries)
		for i := 0; i < queries; i++ {
			g := i % nGoals
			rt, err := r.Retrieve(goals[g], core.ModeFS1FS2)
			if err != nil {
				return err
			}
			if got := fmt.Sprint(addrList(rt)); got != reference[g] {
				return fmt.Errorf("CONC: boards=%d goal %d: candidates diverge from serial path", boards, g)
			}
			service[i] = rt.Stats.Total
		}
		for _, clients := range []int{1, 2, 4, 8, 16} {
			makespan := core.Makespan(service, boards, clients)
			qps := float64(queries) / makespan.Seconds()
			if boards == 1 && clients == 1 {
				baseline = qps
			}
			fmt.Fprintf(w, "%d\t%d\t%v\t%.1f\t%.2fx\n",
				boards, clients, makespan.Round(time.Millisecond), qps, qps/baseline)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "(service times measured on real retrievals; schedule is the closed multi-client model)")
	return nil
}

func addrList(rt *core.Retrieval) []uint32 {
	out := make([]uint32, len(rt.Candidates))
	for i, sc := range rt.Candidates {
		out[i] = sc.Addr
	}
	return out
}

// expFLT exercises the fault-injection and degradation machinery across
// the ladder's rungs and proves the retrieval contract — the correct
// unifier set comes back — holds on every one of them.
func expFLT() error {
	const couples, queries = 120, 48
	fam := workload.Family{Couples: couples, SameEvery: 3}
	clauses := fam.Clauses()

	type scenario struct {
		name   string
		boards int
		mode   core.SearchMode
		rules  []fault.Rule
	}
	scenarios := []scenario{
		{"baseline", 2, core.ModeFS1FS2, nil},
		{"board-retry", 2, core.ModeFS2,
			[]fault.Rule{{Site: fault.SiteFS2, Key: "0", Probability: 1}}},
		{"index-down", 2, core.ModeFS1FS2,
			[]fault.Rule{{Site: fault.SiteDiskIndex, Probability: 1}}},
		{"chassis-down", 4, core.ModeFS2,
			[]fault.Rule{{Site: fault.SiteFS2, Probability: 1}}},
		{"flaky-all", 4, core.ModeFS1FS2,
			[]fault.Rule{
				{Site: fault.SiteFS2, Probability: 0.3},
				{Site: fault.SiteDiskRead, Probability: 0.1},
				{Site: fault.SiteBus, Probability: 0.1},
			}},
	}

	w := tab()
	fmt.Fprintln(w, "scenario\tretrievals\tfaults\tretries\tdegraded fs2\tdegraded host\ttripped\tcorrect")
	for _, sc := range scenarios {
		cfg := core.DefaultConfig()
		cfg.Boards = sc.boards
		cfg.RetryBackoff = time.Microsecond
		cfg.ProbePeriod = time.Hour // no re-admission mid-experiment
		if len(sc.rules) > 0 {
			inj := fault.New(1989)
			for _, rule := range sc.rules {
				inj.Add(rule)
			}
			cfg.Faults = inj
		}
		r, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := r.AddClauses("family", clauses); err != nil {
			return err
		}
		var faults, retries, degFS2, degHost, correct int
		for i := 0; i < queries; i++ {
			goal := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", i%couples))
			rt, err := r.Retrieve(goal, sc.mode)
			if err != nil {
				return fmt.Errorf("FLT %s: query %d: %v", sc.name, i, err)
			}
			faults += rt.Stats.Faults
			retries += rt.Stats.Retries
			switch rt.Stats.Degraded {
			case "fs2":
				degFS2++
			case "host":
				degHost++
			}
			trueU, _, err := rt.Evaluate()
			if err != nil {
				return err
			}
			if trueU == 1 {
				correct++
			}
		}
		if correct != queries {
			return fmt.Errorf("FLT %s: only %d/%d retrievals returned the true unifier", sc.name, correct, queries)
		}
		h := r.Health()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d/%d\n",
			sc.name, queries, faults, retries, degFS2, degHost, h.Tripped, correct, queries)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "(every scenario returns the full true-unifier set; degradation trades time, never answers)")
	return nil
}
