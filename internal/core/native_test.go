package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"clare/internal/clausefile"
	"clare/internal/fault"
	"clare/internal/fs2"
	"clare/internal/parse"
	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/term"
	"clare/internal/termgen"
)

// buildEnginePair returns two retrievers over an identical clause set —
// one per execution engine — so retrieval results can be compared
// address by address (clauses are assigned addresses in insertion order,
// so equal Addr means "the same clause").
func buildEnginePair(t testing.TB, cfg Config, module string, clauses []ClauseTerm) (sim, native *Retriever) {
	t.Helper()
	cfg.Engine = EngineSim
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddClauses(module, clauses); err != nil {
		t.Fatal(err)
	}
	cfg.Engine = EngineNative
	native, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := native.AddClauses(module, clauses); err != nil {
		t.Fatal(err)
	}
	return sim, native
}

// storable reports whether the clause file accepts head: PIF-encodable
// and within the record size limit, sized the way the builder does (head
// record + ':-'(head, true) clause record + framing).
func storable(penc *pif.Encoder, head term.Term) bool {
	he, err := penc.Encode(head, pif.DBSide)
	if err != nil {
		return false
	}
	ce, err := penc.Encode(term.New(":-", head, term.Atom("true")), pif.DBSide)
	return err == nil && 8+he.RecordSize()+ce.RecordSize() <= clausefile.MaxRecordBytes
}

// genWorkload generates n correlated (clause head, query) pairs for one
// predicate, keeping only heads the clause file accepts. Queries that
// cannot be encoded are kept: both engines must fail them identically in
// the hardware modes.
func genWorkload(t testing.TB, seed int64, functor string, arity, n int) (clauses []ClauseTerm, queries []term.Term) {
	t.Helper()
	g := termgen.New(seed)
	penc := pif.NewEncoder(symtab.New())
	for len(clauses) < n {
		query, head := g.Pair(functor, arity)
		if !storable(penc, head) {
			continue
		}
		clauses = append(clauses, ClauseTerm{Head: head})
		queries = append(queries, query)
	}
	return clauses, queries
}

// genFacts generates n p/3 heads shaped like a relation's facts: most
// are variable-free (in-line structures, lists, numbers, atoms) with
// arguments often repeated across positions, so shared-variable goals
// have satisfiers; about one in four carries named variables and one in
// nine an anonymous one, which the native filter must hand to the generic
// matcher.
func genFacts(t testing.TB, seed int64, n int) []ClauseTerm {
	t.Helper()
	g := termgen.New(seed)
	rng := rand.New(rand.NewSource(seed))
	penc := pif.NewEncoder(symtab.New())
	var clauses []ClauseTerm
	for len(clauses) < n {
		head := g.Goal("p", 3)
		if len(clauses)%4 != 3 {
			args := make([]term.Term, 3)
			for i := range args {
				if args[i] = g.Ground(g.Term(2)); i > 0 && rng.Intn(5) < 2 {
					args[i] = args[rng.Intn(i)]
				}
			}
			if len(clauses)%9 == 8 {
				args[rng.Intn(3)] = term.NewVar("_")
			}
			head = term.New("p", args...)
		}
		if storable(penc, head) {
			clauses = append(clauses, ClauseTerm{Head: head})
		}
	}
	return clauses
}

// diffRetrieve runs one goal through both engines in one mode and
// asserts identical outcomes: same error disposition, byte-identical
// candidate address sequences, and identical filtering statistics.
// It returns how many candidate-level comparisons it performed.
func diffRetrieve(t *testing.T, sim, native *Retriever, goal term.Term, mode SearchMode) int {
	t.Helper()
	srt, serr := sim.Retrieve(goal, mode)
	nrt, nerr := native.Retrieve(goal, mode)
	if (serr == nil) != (nerr == nil) {
		t.Fatalf("%v %v: sim err = %v, native err = %v", mode, goal, serr, nerr)
	}
	if serr != nil {
		return 1
	}
	if len(srt.Candidates) != len(nrt.Candidates) {
		t.Fatalf("%v %v: sim %d candidates, native %d",
			mode, goal, len(srt.Candidates), len(nrt.Candidates))
	}
	for i := range srt.Candidates {
		if srt.Candidates[i].Addr != nrt.Candidates[i].Addr {
			t.Fatalf("%v %v: candidate %d addr sim %d != native %d",
				mode, goal, i, srt.Candidates[i].Addr, nrt.Candidates[i].Addr)
		}
	}
	// Either engine's candidates render from their words to the lines
	// decoding and printing them gives.
	checkCandidateLines(t, srt)
	checkCandidateLines(t, nrt)
	ss, ns := srt.Stats, nrt.Stats
	if ss.AfterFS1 != ns.AfterFS1 || ss.AfterFS2 != ns.AfterFS2 {
		t.Fatalf("%v %v: survivor counts sim %d/%d, native %d/%d",
			mode, goal, ss.AfterFS1, ss.AfterFS2, ns.AfterFS1, ns.AfterFS2)
	}
	if ss.MaskedHits != ns.MaskedHits {
		t.Fatalf("%v %v: MaskedHits sim %d, native %d", mode, goal, ss.MaskedHits, ns.MaskedHits)
	}
	if ss.FS2RejectsLevel != ns.FS2RejectsLevel || ss.FS2RejectsXB != ns.FS2RejectsXB {
		t.Fatalf("%v %v: reject split sim %d/%d, native %d/%d",
			mode, goal, ss.FS2RejectsLevel, ss.FS2RejectsXB, ns.FS2RejectsLevel, ns.FS2RejectsXB)
	}
	if ss.IndexBytes != ns.IndexBytes {
		t.Fatalf("%v %v: IndexBytes sim %d, native %d", mode, goal, ss.IndexBytes, ns.IndexBytes)
	}
	if ns.FS1Scan != 0 || ns.DiskFetch != 0 || ns.FS2Match != 0 || ns.HostMatch != 0 || ns.Total != 0 || ns.Chunks != 0 {
		t.Fatalf("%v %v: native retrieval carries a simulated ledger: %+v", mode, goal, ns)
	}
	if mode == ModeSoftware {
		// Software mode shares the whole simulated ledger, which native
		// EXPLAIN prices from the retrieval's counts; the hardware modes
		// differ only in the documented FS2Match/fetch terms.
		p, err := native.ProfileOf(nrt)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats != ss {
			t.Fatalf("%v %v: software Stats sim %+v, native EXPLAIN %+v", mode, goal, ss, p.Stats)
		}
	}
	return len(srt.Candidates) + 1
}

// TestEngineDifferentialGenerated drives both engines over
// generator-produced knowledge bases across all four search modes, and
// requires identical candidates and statistics throughout. The first
// population is correlated (head, query) pairs — variable-bearing heads
// (masked index entries), shared variables, near-miss queries. The second
// is what the compiled matcher and the head stream are for: single-word,
// mostly shared-variable goals over mostly variable-free facts, under
// every microprogram the native engine runs; mode fs2 walks the whole
// head stream there, and its FS2RejectsLevel/FS2RejectsXB split must be
// the board's.
func TestEngineDifferentialGenerated(t *testing.T) {
	comparisons := 0
	for arity := 1; arity <= 4; arity++ {
		clauses, queries := genWorkload(t, int64(1000+arity), "p", arity, 150)
		sim, native := buildEnginePair(t, DefaultConfig(), "gen", clauses)
		// An unconstrained goal retrieves everything through FS1.
		open := make([]term.Term, arity)
		for i := range open {
			open[i] = term.NewVar(fmt.Sprintf("Q%d", i))
		}
		queries = append(queries, term.New("p", open...))
		for _, goal := range queries {
			for _, mode := range modes() {
				comparisons += diffRetrieve(t, sim, native, goal, mode)
			}
		}
	}
	if comparisons < 2400 {
		t.Fatalf("only %d engine comparisons ran", comparisons)
	}

	goals := []string{
		"p(X, X, _)", "p(X, Y, X)", "p(_, Y, Y)", "p(X, X, X)", "p(X, Y, Z)",
		"p(a, X, X)", "p(X, 1, X)", "p(X, X, 0.5)", "p(b, c, _)",
		"p(f(X), X, _)", "p([X | T], X, T)", // multi-word arguments: never compiled
	}
	for i, mp := range []fs2.Microprogram{fs2.MPLevel1, fs2.MPLevel2, fs2.MPLevel3, fs2.MPLevel3XB} {
		cfg := DefaultConfig()
		cfg.Microprogram = mp
		sim, native := buildEnginePair(t, cfg, "facts", genFacts(t, int64(2000+i), 300))
		var passed, xb int
		for _, g := range goals {
			goal := parse.MustTerm(g)
			for _, mode := range modes() {
				diffRetrieve(t, sim, native, goal, mode)
			}
			rt, err := native.Retrieve(goal, ModeFS2)
			if err != nil {
				t.Fatal(err)
			}
			passed += len(rt.Candidates)
			xb += rt.Stats.FS2RejectsXB
		}
		if passed == 0 || mp.CrossBinding != (xb > 0) {
			t.Fatalf("%s: mode fs2 passed %d clauses and made %d cross-binding rejects over the shared-variable goals",
				mp.Name, passed, xb)
		}
	}
}

// TestEngineDifferentialFamily repeats the paper's married_couple
// workload on both engines, including the shared-variable and miss
// goals.
func TestEngineDifferentialFamily(t *testing.T) {
	family := func(n int) []ClauseTerm {
		clauses := make([]ClauseTerm, n)
		for i := range clauses {
			a := term.Atom(fmt.Sprintf("husband%d", i))
			b := term.Atom(fmt.Sprintf("wife%d", i))
			if i%5 == 0 {
				b = a
			}
			clauses[i] = ClauseTerm{Head: term.New("married_couple", a, b)}
		}
		return clauses
	}
	sim, native := buildEnginePair(t, DefaultConfig(), "family", family(120))
	goals := []string{
		"married_couple(husband7, wife7)",
		"married_couple(husband10, X)",
		"married_couple(X, Y)",
		"married_couple(S, S)",
		"married_couple(nobody, X)",
	}
	for _, g := range goals {
		for _, mode := range modes() {
			diffRetrieve(t, sim, native, parse.MustTerm(g), mode)
		}
	}
	// Mode fs1 over an index big enough that the partitioned kernel would
	// split it: the server sweeps it serially, and the sweep is the board's.
	sim, native = buildEnginePair(t, DefaultConfig(), "family", family(2*scw.ParScanMinEntries+7))
	for _, g := range goals {
		goal := parse.MustTerm(g)
		diffRetrieve(t, sim, native, goal, ModeFS1)
		// In mode fs1 the sim ledger and native EXPLAIN's agree to the
		// nanosecond.
		srt, _ := sim.Retrieve(goal, ModeFS1)
		p, err := native.Explain(goal, ModeFS1)
		if err != nil {
			t.Fatal(err)
		}
		if srt.Stats != p.Stats {
			t.Fatalf("fs1 %s: Stats sim %+v, native EXPLAIN %+v", g, srt.Stats, p.Stats)
		}
	}
}

// TestEngineDifferentialUnencodableGoal: software mode must cover goals
// the PIF encoder rejects (too many distinct variables), on both
// engines — the native path falls back to term-level matching.
func TestEngineDifferentialUnencodableGoal(t *testing.T) {
	clauses := []ClauseTerm{
		{Head: term.New("p", term.Atom("a"), term.Atom("b"))},
		{Head: term.New("p", term.Atom("a"), term.Atom("c"))},
	}
	sim, native := buildEnginePair(t, DefaultConfig(), "wide", clauses)
	vars := make([]term.Term, pif.MaxVarSlots+8)
	for i := range vars {
		vars[i] = term.NewVar(fmt.Sprintf("V%d", i))
	}
	goal := term.New("p", term.Atom("a"), term.New("f", vars...))
	for _, mode := range modes() {
		diffRetrieve(t, sim, native, goal, mode)
	}
	// Sanity: the goal really is unencodable.
	if _, err := pif.NewEncoder(symtab.New()).Encode(goal, pif.QuerySide); err == nil {
		t.Fatal("goal unexpectedly encodable; test is vacuous")
	}
	rt, err := native.Retrieve(goal, ModeSoftware)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Candidates) != 0 {
		t.Fatalf("f/%d cannot unify with atoms, got %d candidates", len(vars), len(rt.Candidates))
	}
}

// TestNativeKernelsZeroAlloc pins the native steady-state match path —
// columnar scan plus native FS2 filtering through a pooled arena — at
// zero allocations per retrieval once buffers have warmed up.
func TestNativeKernelsZeroAlloc(t *testing.T) {
	clauses := make([]ClauseTerm, 512)
	for i := range clauses {
		clauses[i] = ClauseTerm{Head: term.New("p",
			term.Atom(fmt.Sprintf("k%d", i%64)), term.Int(int64(i)))}
	}
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := r.AddClauses("m", clauses)
	if err != nil {
		t.Fatal(err)
	}
	goal := term.New("p", term.Atom("k3"), term.NewVar("N"))
	rt := &Retrieval{pred: pred}
	qd, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		t.Fatal(err)
	}
	a := r.arena()
	if err := a.nm.SetQuery(q); err != nil {
		t.Fatal(err)
	}
	col := pred.File.Index().Columnar()
	rt.Candidates = make([]*clausefile.StoredClause, 0, pred.File.Len())
	var survivors int
	scan := func() {
		col.ScanInto(qd, &a.buf)
		rt.Candidates = rt.Candidates[:0]
		nativeFilter(a.nm, pred.File, len(a.buf.Pos), a.buf.Pos, rt)
		survivors = len(rt.Candidates)
	}
	scan() // warm the arena's buffers
	allocs := testing.AllocsPerRun(200, scan)
	if survivors == 0 {
		t.Fatal("scan+match found nothing; kernel never exercised")
	}
	if allocs != 0 {
		t.Fatalf("native match path allocates %.1f times per retrieval, want 0", allocs)
	}
}

// TestNativeEngineConfig covers the Engine plumbing: parsing, the
// accessor, and what the native engine refuses — a DescendFull
// microprogram and the settings of a chassis it does not build.
func TestNativeEngineConfig(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"sim", EngineSim, true},
		{"", EngineSim, true},
		{"native", EngineNative, true},
		{"turbo", EngineSim, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if EngineSim.String() != "sim" || EngineNative.String() != "native" {
		t.Errorf("engine names: %v, %v", EngineSim, EngineNative)
	}

	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.Microprogram = fs2.MPLevel5
	if _, err := New(cfg); err == nil {
		t.Fatal("native engine accepted a DescendFull microprogram")
	}
	cfg.Engine = EngineSim
	if _, err := New(cfg); err != nil {
		t.Fatalf("sim engine rejected MPLevel5: %v", err)
	}
	cfg = DefaultConfig()
	cfg.Boards = 2
	if _, err := New(cfg); err != nil {
		t.Fatalf("sim engine rejected Boards > 1: %v", err)
	}
	cfg.Engine = EngineNative
	if _, err := New(cfg); err == nil || strings.Contains(err.Error(), "\n") {
		t.Fatalf("native engine with Boards > 1: err = %v, want a one-line refusal", err)
	}
	cfg = DefaultConfig()
	cfg.Engine = EngineNative
	cfg.Boards = 1 // the paper's one board is accepted
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Health(); r.pool != nil || h.Boards != 0 || h.Units != nil || r.FS2Stats() != (fs2.Stats{}) {
		t.Fatalf("native retriever describes a chassis: health %+v", h)
	}
	cfg.Engine = Engine(42)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown engine value accepted")
	}
	r, err = New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine() != EngineSim {
		t.Fatalf("default engine = %v", r.Engine())
	}
}

// TestNativeRefusesSimFaultSites: a fault rule at a site only the
// simulated chassis probes — a drive, the bus, a board — would be armed
// and never fire on the native engine, so building a native retriever
// with one fails, naming the site and the engine that probes it, keyed or
// not. The retrieval and WAL sites stay accepted, and the sim engine
// accepts every rule.
func TestNativeRefusesSimFaultSites(t *testing.T) {
	for _, tc := range []struct {
		site, key string
		native    bool
	}{
		{fault.SiteDiskRead, "", false},
		{fault.SiteDiskRead, "0", false},
		{fault.SiteDiskIndex, "", false},
		{fault.SiteDiskIndex, "0", false},
		{fault.SiteBus, "", false},
		{fault.SiteBus, "0", false},
		{fault.SiteFS2, "", false},
		{fault.SiteFS2, "0", false},
		{fault.SiteRetrieve, "", true},
		{fault.SiteRetrieve, "married_couple/2", true},
		{fault.SiteWALAppend, "", true},
	} {
		for _, engine := range []Engine{EngineSim, EngineNative} {
			cfg := DefaultConfig()
			cfg.Engine = engine
			cfg.Faults = fault.New(1).
				Add(fault.Rule{Site: fault.SiteRetrieve, Probability: 0.1}).
				Add(fault.Rule{Site: tc.site, Key: tc.key, Probability: 0})
			_, err := New(cfg)
			want := engine == EngineSim || tc.native
			if want && err != nil {
				t.Errorf("%v: rule %s@%q refused: %v", engine, tc.site, tc.key, err)
			}
			if !want && (err == nil || !strings.Contains(err.Error(), tc.site) ||
				!strings.Contains(err.Error(), "needs -engine sim") || strings.Contains(err.Error(), "\n")) {
				t.Errorf("%v: rule %s@%q: err = %v, want a one-line refusal naming the site and -engine sim", engine, tc.site, tc.key, err)
			}
		}
	}
}

// BenchmarkRetrieveEngines compares one FS1+FS2 retrieval end to end on
// both engines.
func BenchmarkRetrieveEngines(b *testing.B) {
	clauses := make([]ClauseTerm, 4096)
	for i := range clauses {
		clauses[i] = ClauseTerm{Head: term.New("p",
			term.Atom(fmt.Sprintf("k%d", i%256)), term.Int(int64(i)))}
	}
	goal := term.New("p", term.Atom("k17"), term.NewVar("N"))
	for _, eng := range []Engine{EngineSim, EngineNative} {
		b.Run(eng.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Engine = eng
			r, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.AddClauses("m", clauses); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Retrieve(goal, ModeFS1FS2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
