package fs2

import (
	"testing"
	"time"

	"clare/internal/parse"
	"clare/internal/pif"
	"clare/internal/symtab"
	"clare/internal/term"
)

// TestTable1 pins the derived execution times to the paper's Table 1.
func TestTable1(t *testing.T) {
	want := map[OpCode]time.Duration{
		OpMatch:                105 * time.Nanosecond,
		OpDBStore:              95 * time.Nanosecond,
		OpQueryStore:           115 * time.Nanosecond,
		OpDBFetch:              105 * time.Nanosecond,
		OpQueryFetch:           170 * time.Nanosecond,
		OpDBCrossBoundFetch:    170 * time.Nanosecond,
		OpQueryCrossBoundFetch: 235 * time.Nanosecond,
	}
	got := Table1()
	for op, w := range want {
		if got[op] != w {
			t.Errorf("Table 1 %v = %v, want %v", op, got[op], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("Table 1 has %d operations, want %d", len(got), len(want))
	}
}

// TestFigureRouteTimings checks the per-route intermediate numbers the
// figures print.
func TestFigureRouteTimings(t *testing.T) {
	ops := Operations()
	ns := func(d time.Duration) int64 { return d.Nanoseconds() }

	m := ops[OpMatch]
	if ns(m.Cycles[0].DBRoute.Time()) != 40 || ns(m.Cycles[0].QueryRoute.Time()) != 75 {
		t.Errorf("MATCH routes = %d/%d ns, want 40/75 (Figure 6)",
			ns(m.Cycles[0].DBRoute.Time()), ns(m.Cycles[0].QueryRoute.Time()))
	}
	ds := ops[OpDBStore]
	if ns(ds.Cycles[0].DBRoute.Time()) != 60 || ns(ds.Cycles[0].QueryRoute.Time()) != 75 {
		t.Errorf("DB_STORE routes = %d/%d ns, want 60/75 (Figure 7)",
			ns(ds.Cycles[0].DBRoute.Time()), ns(ds.Cycles[0].QueryRoute.Time()))
	}
	qs := ops[OpQueryStore]
	if ns(qs.Cycles[0].DBRoute.Time()) != 80 || ns(qs.Cycles[0].QueryRoute.Time()) != 20 {
		t.Errorf("QUERY_STORE routes = %d/%d ns, want 80/20 (Figure 8)",
			ns(qs.Cycles[0].DBRoute.Time()), ns(qs.Cycles[0].QueryRoute.Time()))
	}
	df := ops[OpDBFetch]
	if ns(df.Cycles[0].DBRoute.Time()) != 65 || ns(df.Cycles[0].QueryRoute.Time()) != 75 {
		t.Errorf("DB_FETCH routes = %d/%d ns, want 65/75 (Figure 9)",
			ns(df.Cycles[0].DBRoute.Time()), ns(df.Cycles[0].QueryRoute.Time()))
	}
	qf := ops[OpQueryFetch]
	if ns(qf.Cycles[0].QueryRoute.Time()) != 120 || ns(qf.Cycles[1].QueryRoute.Time()) != 20 {
		t.Errorf("QUERY_FETCH query routes = %d/%d ns, want 120/20 (Figure 10)",
			ns(qf.Cycles[0].QueryRoute.Time()), ns(qf.Cycles[1].QueryRoute.Time()))
	}
	dx := ops[OpDBCrossBoundFetch]
	if ns(dx.Cycles[0].QueryRoute.Time()) != 75 || ns(dx.Cycles[1].DBRoute.Time()) != 65 {
		t.Errorf("DB_XB_FETCH cycle routes = %d/%d ns, want 75/65 (Figure 11)",
			ns(dx.Cycles[0].QueryRoute.Time()), ns(dx.Cycles[1].DBRoute.Time()))
	}
	qx := ops[OpQueryCrossBoundFetch]
	if ns(qx.Cycles[0].QueryRoute.Time()) != 95 ||
		ns(qx.Cycles[1].QueryRoute.Time()) != 65 ||
		ns(qx.Cycles[2].QueryRoute.Time()) != 45 {
		t.Errorf("QUERY_XB_FETCH cycle routes = %d/%d/%d ns, want 95/65/45 (Figure 12)",
			ns(qx.Cycles[0].QueryRoute.Time()), ns(qx.Cycles[1].QueryRoute.Time()),
			ns(qx.Cycles[2].QueryRoute.Time()))
	}
}

func TestWorstCase(t *testing.T) {
	op, d := WorstCaseOp()
	if op != OpQueryCrossBoundFetch || d != 235*time.Nanosecond {
		t.Errorf("worst case = %v %v, want QUERY_CROSS_BOUND_FETCH 235ns", op, d)
	}
	rate := WorstCaseRate()
	if rate < 4.2e6 || rate > 4.3e6 {
		t.Errorf("worst-case rate = %.3g B/s, want ≈4.25 MB/s", rate)
	}
}

func TestModeBits(t *testing.T) {
	// §3's operational-mode table.
	cases := []struct {
		m      Mode
		b0, b1 uint8
	}{
		{ModeReadResult, 0, 0},
		{ModeSearch, 0, 1},
		{ModeMicroprogramming, 1, 0},
		{ModeSetQuery, 1, 1},
	}
	for _, c := range cases {
		b0, b1 := c.m.ControlBits()
		if b0 != c.b0 || b1 != c.b1 {
			t.Errorf("%v bits = %d,%d want %d,%d", c.m, b0, b1, c.b0, c.b1)
		}
		if ModeFromBits(c.b0, c.b1) != c.m {
			t.Errorf("ModeFromBits(%d,%d) = %v", c.b0, c.b1, ModeFromBits(c.b0, c.b1))
		}
	}
}

// rig builds an engine with a loaded query, following the §3 protocol:
// microprogram → set query → search.
type rig struct {
	e   *Engine
	enc *pif.Encoder
}

func newRig(t *testing.T, query string, mp Microprogram) *rig {
	t.Helper()
	enc := pif.NewEncoder(symtab.New())
	q, err := enc.Encode(parse.MustTerm(query), pif.QuerySide)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{e: simFor(t, mp, q), enc: enc}
}

// simFor loads mp and q into a simulated board, ready to Search.
func simFor(t testing.TB, mp Microprogram, q *pif.Encoded) *Engine {
	t.Helper()
	e := New()
	e.SetMode(ModeMicroprogramming)
	if err := e.LoadMicroprogram(mp); err != nil {
		t.Fatal(err)
	}
	e.SetMode(ModeSetQuery)
	if err := e.SetQuery(q); err != nil {
		t.Fatal(err)
	}
	e.SetMode(ModeSearch)
	return e
}

func (r *rig) records(t *testing.T, heads ...string) []Record {
	t.Helper()
	recs := make([]Record, len(heads))
	for i, h := range heads {
		enc, err := r.enc.Encode(parse.MustTerm(h), pif.DBSide)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = Record{Addr: uint32(i), Enc: enc}
	}
	return recs
}

func (r *rig) search(t *testing.T, heads ...string) SearchResult {
	t.Helper()
	res, err := r.e.Search(r.records(t, heads...))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestModeProtocolEnforced(t *testing.T) {
	e := New()
	if err := e.LoadMicroprogram(MPLevel3XB); err == nil {
		t.Error("LoadMicroprogram outside Microprogramming mode should fail")
	}
	syms := symtab.New()
	enc := pif.NewEncoder(syms)
	q, _ := enc.Encode(parse.MustTerm("p(a)"), pif.QuerySide)
	if err := e.SetQuery(q); err == nil {
		t.Error("SetQuery outside Set Query mode should fail")
	}
	if _, err := e.Search(nil); err == nil {
		t.Error("Search outside Search mode should fail")
	}
	e.SetMode(ModeSearch)
	if _, err := e.Search(nil); err == nil {
		t.Error("Search without microprogram should fail")
	}
	e.SetMode(ModeMicroprogramming)
	if err := e.LoadMicroprogram(MPLevel3XB); err != nil {
		t.Fatal(err)
	}
	e.SetMode(ModeSearch)
	if _, err := e.Search(nil); err == nil {
		t.Error("Search without query should fail")
	}
	// DB-side encodings are rejected as queries.
	e.SetMode(ModeSetQuery)
	dbq, _ := enc.Encode(parse.MustTerm("p(X)"), pif.DBSide)
	if err := e.SetQuery(dbq); err == nil {
		t.Error("SetQuery with DB-side encoding should fail")
	}
}

func TestGroundMatch(t *testing.T) {
	r := newRig(t, "likes(mary, wine)", MPLevel3XB)
	res := r.search(t, "likes(mary, wine)", "likes(john, wine)", "likes(mary, beer)")
	if len(res.Matches) != 1 || res.Matches[0] != 0 {
		t.Errorf("matches = %v, want [0]", res.Matches)
	}
	if !r.e.MatchFound() {
		t.Error("control bit b7 should be set after a match")
	}
	r.e.SetMode(ModeReadResult)
	addrs, err := r.e.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != 0 {
		t.Errorf("ReadResult = %v", addrs)
	}
}

func TestVariableMatch(t *testing.T) {
	r := newRig(t, "p(X, 1)", MPLevel3XB)
	res := r.search(t, "p(a, 1)", "p(b, 2)", "p(C, D)", "p(k, 1)")
	want := []uint32{0, 2, 3}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
	for i, w := range want {
		if res.Matches[i] != w {
			t.Errorf("matches = %v, want %v", res.Matches, want)
		}
	}
}

// TestSharedVariableCrossBinding is the headline behaviour: FS2's
// cross-binding check rejects married_couple(fred, wilma) for the query
// married_couple(S, S) — the false drops FS1 cannot avoid (§2.1).
func TestSharedVariableCrossBinding(t *testing.T) {
	r := newRig(t, "married_couple(S, S)", MPLevel3XB)
	res := r.search(t,
		"married_couple(fred, wilma)",
		"married_couple(pat, pat)",
		"married_couple(A, A)",
		"married_couple(B, C)", // unifies: B=C=S
		"married_couple(x, y)",
	)
	want := []uint32{1, 2, 3}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
	for i, w := range want {
		if res.Matches[i] != w {
			t.Errorf("matches = %v, want %v", res.Matches, want)
		}
	}
	// Without cross-binding every clause survives.
	r2 := newRig(t, "married_couple(S, S)", MPLevel3)
	res2 := r2.search(t,
		"married_couple(fred, wilma)",
		"married_couple(pat, pat)",
	)
	if len(res2.Matches) != 2 {
		t.Errorf("without XB matches = %v, want all", res2.Matches)
	}
}

// TestPaperCrossBindingExample is §3.3.6's own example: query f(X,a,b)
// against clause f(A,a,A).
func TestPaperCrossBindingExample(t *testing.T) {
	r := newRig(t, "f(X, a, b)", MPLevel3XB)
	res := r.search(t, "f(A, a, A)")
	if len(res.Matches) != 1 {
		t.Error("f(X,a,b) vs f(A,a,A) unifies (X=A=b) and must pass")
	}
	if r.e.Stats.OpCount(OpDBCrossBoundFetch)+r.e.Stats.OpCount(OpQueryCrossBoundFetch) == 0 {
		t.Error("the example should exercise a cross-bound fetch")
	}
	// And the rejecting variant.
	r2 := newRig(t, "f(c, a, b)", MPLevel3XB)
	res2 := r2.search(t, "f(A, a, A)")
	if len(res2.Matches) != 0 {
		t.Error("f(c,a,b) vs f(A,a,A) cannot unify; cross-binding must reject")
	}
}

func TestOperationAccounting(t *testing.T) {
	r := newRig(t, "p(a, b)", MPLevel3XB)
	r.search(t, "p(a, b)")
	if got := r.e.Stats.OpCount(OpMatch); got != 2 {
		t.Errorf("MATCH count = %d, want 2 (two ground argument pairs)", got)
	}
	if r.e.Stats.MatchTime != 2*105*time.Nanosecond {
		t.Errorf("match time = %v, want 210ns", r.e.Stats.MatchTime)
	}

	r2 := newRig(t, "p(a)", MPLevel3XB)
	r2.search(t, "p(X)") // first DB variable → DB_STORE
	if got := r2.e.Stats.OpCount(OpDBStore); got != 1 {
		t.Errorf("DB_STORE count = %d, want 1", got)
	}

	r3 := newRig(t, "p(X)", MPLevel3XB)
	r3.search(t, "p(a)") // first query variable → QUERY_STORE
	if got := r3.e.Stats.OpCount(OpQueryStore); got != 1 {
		t.Errorf("QUERY_STORE count = %d, want 1", got)
	}

	r4 := newRig(t, "p(a, a)", MPLevel3XB)
	r4.search(t, "p(A, A)") // store then fetch+compare
	if got := r4.e.Stats.OpCount(OpDBFetch); got != 1 {
		t.Errorf("DB_FETCH count = %d, want 1", got)
	}

	r5 := newRig(t, "p(X, X)", MPLevel3XB)
	r5.search(t, "p(a, a)") // query store then query fetch
	if got := r5.e.Stats.OpCount(OpQueryFetch); got != 1 {
		t.Errorf("QUERY_FETCH count = %d, want 1", got)
	}
}

func TestStructureMatching(t *testing.T) {
	r := newRig(t, "p(f(1, 2))", MPLevel3XB)
	res := r.search(t,
		"p(f(1, 2))", // exact
		"p(f(1, 3))", // first-level element differs → reject
		"p(f(1))",    // arity differs → reject
		"p(g(1, 2))", // functor differs → reject
		"p(f(X, 2))", // var element → pass
	)
	want := []uint32{0, 4}
	if len(res.Matches) != 2 || res.Matches[0] != want[0] || res.Matches[1] != want[1] {
		t.Errorf("matches = %v, want %v", res.Matches, want)
	}
}

func TestLevel3DepthLimit(t *testing.T) {
	// Differences at depth 2 are invisible to level 3 (false drops), but
	// visible to nothing in the hardware — they go to full unification.
	r := newRig(t, "p(f(g(1)))", MPLevel3XB)
	res := r.search(t, "p(f(g(1)))", "p(f(g(2)))", "p(f(h(1)))")
	// g(2): depth-2 difference → passes (false drop). h(1): first-level
	// element functor differs → rejected.
	want := []uint32{0, 1}
	if len(res.Matches) != 2 || res.Matches[0] != want[0] || res.Matches[1] != want[1] {
		t.Errorf("matches = %v, want %v", res.Matches, want)
	}
}

func TestListMatching(t *testing.T) {
	r := newRig(t, "p([1, 2, 3])", MPLevel3XB)
	res := r.search(t,
		"p([1, 2, 3])",  // exact
		"p([1, 2])",     // closed lengths differ → reject
		"p([1, 2, 4])",  // element differs → reject
		"p([1, 2, X])",  // var element → pass
		"p([1, 2 | T])", // open list, fits → pass
		"p(f(1, 2, 3))", // structure, not list → reject
	)
	want := []uint32{0, 3, 4}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
	for i, w := range want {
		if res.Matches[i] != w {
			t.Errorf("matches = %v, want %v", res.Matches, want)
		}
	}
}

func TestUnlimitedListQueries(t *testing.T) {
	r := newRig(t, "p([a, b | T])", MPLevel3XB)
	res := r.search(t,
		"p([a, b, c, d])", // open 2 ≤ closed 4 → pass
		"p([a])",          // open 2 > closed 1 → reject
		"p([a, x, y])",    // second element differs → reject
		"p([a, b])",       // exactly the prefix → pass
	)
	want := []uint32{0, 3}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
}

func TestMicroprogramLevels(t *testing.T) {
	heads := []string{
		"p(a)",    // true unifier for p(a)
		"p(b)",    // same type, different content
		"p(1)",    // different type
		"p(f(x))", // complex
	}
	// Level 1: type only — p(b) passes, p(1) and p(f(x)) rejected.
	r1 := newRig(t, "p(a)", MPLevel1)
	res1 := r1.search(t, heads...)
	if len(res1.Matches) != 2 || res1.Matches[0] != 0 || res1.Matches[1] != 1 {
		t.Errorf("level 1 matches = %v, want [0 1]", res1.Matches)
	}
	// Level 2: content too — only p(a).
	r2 := newRig(t, "p(a)", MPLevel2)
	res2 := r2.search(t, heads...)
	if len(res2.Matches) != 1 || res2.Matches[0] != 0 {
		t.Errorf("level 2 matches = %v, want [0]", res2.Matches)
	}
	// Level 2 vs 3 on first-level elements.
	heads2 := []string{"q(f(1))", "q(f(2))", "q(g(1))"}
	r3 := newRig(t, "q(f(1))", MPLevel2)
	res3 := r3.search(t, heads2...)
	if len(res3.Matches) != 2 { // level 2 sees functor f≠g but not elements
		t.Errorf("level 2 matches = %v, want f(1) and f(2)", res3.Matches)
	}
	r4 := newRig(t, "q(f(1))", MPLevel3)
	res4 := r4.search(t, heads2...)
	if len(res4.Matches) != 1 {
		t.Errorf("level 3 matches = %v, want only f(1)", res4.Matches)
	}
}

func TestResultMemoryLimits(t *testing.T) {
	// More satisfiers than the 6-bit counter can address.
	r := newRig(t, "n(X)", MPLevel3XB)
	heads := make([]string, ResultSlots+10)
	for i := range heads {
		heads[i] = "n(k)"
	}
	res := r.search(t, heads...)
	if len(res.Matches) != ResultSlots {
		t.Errorf("matches = %d, want capped at %d", len(res.Matches), ResultSlots)
	}
	if !res.Overflowed || r.e.Stats.ResultOverflows != 10 {
		t.Errorf("overflow accounting = %v / %d", res.Overflowed, r.e.Stats.ResultOverflows)
	}
}

func TestDoubleBufferToggles(t *testing.T) {
	r := newRig(t, "p(a)", MPLevel3XB)
	r.search(t, "p(a)", "p(b)", "p(c)")
	if r.e.buffer.Loads != 3 || r.e.buffer.Toggles != 3 {
		t.Errorf("buffer loads/toggles = %d/%d, want 3/3", r.e.buffer.Loads, r.e.buffer.Toggles)
	}
}

func TestAnonymousVariableSkips(t *testing.T) {
	r := newRig(t, "p(_, 1)", MPLevel3XB)
	res := r.search(t, "p(anything, 1)", "p(other, 2)")
	if len(res.Matches) != 1 || res.Matches[0] != 0 {
		t.Errorf("matches = %v, want [0]", res.Matches)
	}
}

func TestWrongFunctorOrArityRejected(t *testing.T) {
	r := newRig(t, "p(a)", MPLevel3XB)
	res := r.search(t, "q(a)", "p(a, b)", "p(a)")
	if len(res.Matches) != 1 || res.Matches[0] != 2 {
		t.Errorf("matches = %v, want [2]", res.Matches)
	}
}

func TestStatsAccumulateAcrossSearches(t *testing.T) {
	r := newRig(t, "p(a)", MPLevel3XB)
	r.search(t, "p(a)")
	r.search(t, "p(b)")
	if r.e.Stats.ClausesExamined != 2 {
		t.Errorf("ClausesExamined = %d", r.e.Stats.ClausesExamined)
	}
	if r.e.Stats.ClausesMatched != 1 {
		t.Errorf("ClausesMatched = %d", r.e.Stats.ClausesMatched)
	}
	if r.e.Stats.BytesExamined != 8 { // two 1-word clauses
		t.Errorf("BytesExamined = %d", r.e.Stats.BytesExamined)
	}
	if r.e.Stats.TotalOps() == 0 {
		t.Error("TotalOps should be positive")
	}
}

func TestBreakdownsCoverAllFigures(t *testing.T) {
	bds := Breakdowns()
	if len(bds) != 7 {
		t.Fatalf("breakdowns = %d, want 7", len(bds))
	}
	figs := map[int]bool{}
	for _, op := range bds {
		figs[op.Figure] = true
	}
	for f := 6; f <= 12; f++ {
		if !figs[f] {
			t.Errorf("figure %d missing from breakdowns", f)
		}
	}
}

func TestSearchResultMatchTimePerSearch(t *testing.T) {
	r := newRig(t, "p(a, b, c)", MPLevel3XB)
	res1 := r.search(t, "p(a, b, c)")
	res2 := r.search(t, "p(a, b, c)")
	if res1.MatchTime != res2.MatchTime || res1.MatchTime != 3*105*time.Nanosecond {
		t.Errorf("per-search times = %v, %v; want 315ns each", res1.MatchTime, res2.MatchTime)
	}
}

func TestBigStructurePointers(t *testing.T) {
	// Arity-40 structures: pointer form at top level.
	args := make([]string, 40)
	for i := range args {
		args[i] = "k"
	}
	big := "big(" + args[0]
	for _, a := range args[1:] {
		big += "," + a
	}
	big += ")"

	r := newRig(t, "p("+big+")", MPLevel3XB)
	res := r.search(t, "p("+big+")", "p(f(1))", "p(X)")
	// The exact pointer pair passes (functor+>31 arity agree); f(1) has
	// known arity 1 vs >31 → rejected; the variable passes.
	want := []uint32{0, 2}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
}

func TestQueryVarBindingsResetBetweenClauses(t *testing.T) {
	// X binds differently per clause; bindings must not leak across.
	r := newRig(t, "p(X, X)", MPLevel3XB)
	res := r.search(t, "p(a, a)", "p(b, b)", "p(a, b)")
	want := []uint32{0, 1}
	if len(res.Matches) != 2 || res.Matches[0] != want[0] || res.Matches[1] != want[1] {
		t.Errorf("matches = %v, want %v", res.Matches, want)
	}
}

func TestNestedListElements(t *testing.T) {
	r := newRig(t, "p([[1,2],[3]])", MPLevel3XB)
	res := r.search(t,
		"p([[1,2],[3]])",   // shapes agree → pass
		"p([[1,2],[3,4]])", // nested arity differs → reject (shape visible in tag)
		"p([[9,9],[3]])",   // nested CONTENT differs → pass (level 3 false drop)
		"p([[1,2]])",       // outer length differs → reject
	)
	want := []uint32{0, 2}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
	for i, w := range want {
		if res.Matches[i] != w {
			t.Errorf("matches = %v, want %v", res.Matches, want)
		}
	}
}

func TestFloatsAndInts(t *testing.T) {
	r := newRig(t, "p(2.5, 7)", MPLevel3XB)
	res := r.search(t,
		"p(2.5, 7)", // exact
		"p(2.5, 8)", // int differs
		"p(3.5, 7)", // float differs
		"p(7, 2.5)", // types swapped
	)
	if len(res.Matches) != 1 || res.Matches[0] != 0 {
		t.Errorf("matches = %v, want [0]", res.Matches)
	}
}

func TestNegativeIntegers(t *testing.T) {
	r := newRig(t, "p(-5)", MPLevel3XB)
	res := r.search(t, "p(-5)", "p(5)", "p(-6)")
	if len(res.Matches) != 1 || res.Matches[0] != 0 {
		t.Errorf("matches = %v, want [0]", res.Matches)
	}
}

func TestTermRoundTripHelper(t *testing.T) {
	// Guard the helper itself: term package Cons behaviour under rename
	// used throughout the rig.
	tt := parse.MustTerm("p(X, X)")
	if !term.HasSharedVars(tt) {
		t.Fatal("rig helper sanity failed")
	}
}
