package fs2

import (
	"fmt"
	"math/rand"
	"testing"

	"clare/internal/clausefile"
	"clare/internal/parse"
	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/symtab"
	"clare/internal/term"
	"clare/internal/termgen"
)

// nativeFor builds a NativeMatcher for mp with q loaded.
func nativeFor(t testing.TB, mp Microprogram, q *pif.Encoded) *NativeMatcher {
	t.Helper()
	nm, err := NewNativeMatcher(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.SetQuery(q); err != nil {
		t.Fatal(err)
	}
	return nm
}

// diffMatch asserts the native matcher and the simulated board agree on
// one head — same accept/reject, same cross-binding reject
// classification — and returns the decision ('a'ccept, 'l'evel reject,
// 'x' cross-binding reject).
func diffMatch(t *testing.T, e *Engine, nm *NativeMatcher, h *pif.Encoded, query, head term.Term) byte {
	t.Helper()
	res, err := e.Search([]Record{{Addr: 7, Enc: h}})
	if err != nil {
		t.Fatal(err)
	}
	simPass, natPass := len(res.Matches) == 1, nm.Match(h)
	if simPass != natPass {
		t.Fatalf("mp=%s: sim=%v native=%v\n  query %v\n  head  %v", nm.mp.Name, simPass, natPass, query, head)
	}
	if simPass {
		return 'a'
	}
	if simXB := res.RejectsXB == 1; simXB != nm.LastRejectXB() {
		t.Fatalf("mp=%s: reject cause sim xb=%v native xb=%v\n  query %v\n  head  %v",
			nm.mp.Name, simXB, nm.LastRejectXB(), query, head)
	}
	if nm.LastRejectXB() {
		return 'x'
	}
	return 'l'
}

// flatGen draws the populations the compiled path exists for: queries
// whose arguments are mostly one word each (shared variables, anonymous
// variables, constants, a list long enough to be a pointer) and heads
// that are mostly variable-free.
type flatGen struct {
	rng *rand.Rand
	gen *termgen.Gen
}

func (f flatGen) constant() term.Term {
	switch f.rng.Intn(4) {
	case 0:
		return term.Int(f.rng.Intn(4))
	case 1:
		return term.Float(float64(f.rng.Intn(4)) / 2)
	default:
		return term.Atom(string(rune('a' + f.rng.Intn(4))))
	}
}

func (f flatGen) longList() term.Term {
	elems := make([]term.Term, pif.MaxInlineArity+1+f.rng.Intn(3))
	for i := range elems {
		elems[i] = term.Int(i)
	}
	return term.List(elems...)
}

// query draws a goal over up to three variables, so most goals of arity
// two or more share one.
func (f flatGen) query(arity int) term.Term {
	vars := []term.Term{term.NewVar("X"), term.NewVar("Y"), term.NewVar("Z")}
	args := make([]term.Term, arity)
	for i := range args {
		switch k := f.rng.Intn(20); {
		case k < 9:
			args[i] = vars[f.rng.Intn(1+f.rng.Intn(len(vars)))]
		case k < 11:
			args[i] = term.NewVar("_")
		case k < 18:
			args[i] = f.constant()
		case k < 19:
			args[i] = f.longList()
		default:
			// A multi-word argument: the whole query takes the generic path.
			args[i] = f.gen.Term(2)
		}
	}
	return term.New("p", args...)
}

// head draws a clause head for query: half the time an instance of it
// (each variable consistently replaced, an argument now and then
// perturbed), else unrelated ground arguments; then a quarter of the heads
// get an anonymous or a named (possibly shared) variable argument.
func (f flatGen) head(query term.Term) term.Term {
	qargs := query.(*term.Compound).Args
	args := make([]term.Term, len(qargs))
	instance := f.rng.Intn(2) == 0
	subst := map[term.Term]term.Term{}
	for i, qa := range qargs {
		args[i] = f.gen.Ground(f.gen.Term(2))
		if !instance || f.rng.Intn(5) == 0 {
			continue
		}
		if v, ok := qa.(*term.Var); !ok {
			args[i] = f.gen.Ground(qa)
		} else if v.Name != "_" {
			if subst[qa] == nil {
				subst[qa] = args[i]
			}
			args[i] = subst[qa]
		}
	}
	switch f.rng.Intn(8) {
	case 0:
		args[f.rng.Intn(len(args))] = term.NewVar("_")
	case 1:
		v := term.NewVar("A")
		for n := 1 + f.rng.Intn(2); n > 0; n-- {
			args[f.rng.Intn(len(args))] = v
		}
	}
	return term.New("p", args...)
}

// TestNativeMatcherDifferential is the FS2 half of the differential
// oracle: under every non-DescendFull microprogram the native matcher
// must agree with the simulated board clause by clause — same
// accept/reject, same cross-binding reject classification — over two
// generated populations. "pairs" is termgen's correlated query/head
// pairs (in-line arguments, open lists, near-misses), which the generic
// matcher decides. "flat" loads each query once and streams heads past
// it, as a retrieval does: most queries compile, most heads are
// variable-free and run the compiled program, and the rest — heads with
// anonymous or named variables, queries with a multi-word argument —
// fall through; both routes must have been taken, and the compiled one
// must have produced all three decisions.
func TestNativeMatcherDifferential(t *testing.T) {
	for _, mp := range []Microprogram{MPLevel1, MPLevel2, MPLevel3, MPLevel3XB} {
		t.Run(mp.Name+"/pairs", func(t *testing.T) {
			gen := termgen.New(int64(len(mp.Name))*7919 + 13)
			enc := pif.NewEncoder(symtab.New())
			nm, err := NewNativeMatcher(mp)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2500; i++ {
				query, head := gen.Pair("p", 1+i%4)
				q, err := enc.Encode(query, pif.QuerySide)
				if err != nil {
					continue // e.g. a mutated improper list: not encodable, not retrievable
				}
				h, err := enc.Encode(head, pif.DBSide)
				if err != nil {
					continue
				}
				if err := nm.SetQuery(q); err != nil {
					t.Fatal(err)
				}
				diffMatch(t, simFor(t, mp, q), nm, h, query, head)
			}
		})
		t.Run(mp.Name+"/flat", func(t *testing.T) {
			seed := int64(len(mp.Name))*104729 + 7
			f := flatGen{rng: rand.New(rand.NewSource(seed)), gen: termgen.New(seed)}
			enc := pif.NewEncoder(symtab.New())
			nm, err := NewNativeMatcher(mp)
			if err != nil {
				t.Fatal(err)
			}
			var program, fellThrough int
			decisions := map[byte]int{}
			for i := 0; i < 120; i++ {
				query := f.query(1 + i%4)
				q, err := enc.Encode(query, pif.QuerySide)
				if err != nil {
					continue
				}
				if err := nm.SetQuery(q); err != nil {
					t.Fatal(err)
				}
				e := simFor(t, mp, q)
				for j := 0; j < 40; j++ {
					head := f.head(query)
					h, err := enc.Encode(head, pif.DBSide)
					if err != nil {
						continue
					}
					d := diffMatch(t, e, nm, h, query, head)
					if nm.compiled && pif.VariableFree(h.Args) {
						program++
						decisions[d]++
					} else {
						fellThrough++
					}
				}
			}
			if fellThrough == 0 || program < 2*fellThrough {
				t.Fatalf("%d pairs ran the compiled program, %d fell through: want both, mostly the program", program, fellThrough)
			}
			if decisions['a'] == 0 || decisions['l'] == 0 || mp.CrossBinding != (decisions['x'] > 0) {
				t.Fatalf("compiled-program decisions %d accept / %d level / %d cross-binding under %s",
					decisions['a'], decisions['l'], decisions['x'], mp.Name)
			}
		})
	}
}

// TestNativeMatcherReuse checks one matcher survives query reloads and
// repeated clauses without state leaking between comparisons.
func TestNativeMatcherReuse(t *testing.T) {
	syms := symtab.New()
	enc := pif.NewEncoder(syms)
	nm, err := NewNativeMatcher(MPLevel3XB)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q, h string
		want bool
	}{
		{"p(X, X)", "p(a, a)", true},
		{"p(X, X)", "p(a, b)", false}, // must not inherit the previous binding
		{"p(X, X)", "p(A, A)", true},
		{"q(1)", "q(1)", true},
		{"q(1)", "q(2)", false},
	}
	for _, c := range cases {
		qt, err := parse.Term(c.q)
		if err != nil {
			t.Fatal(err)
		}
		ht, err := parse.Term(c.h)
		if err != nil {
			t.Fatal(err)
		}
		q, err := enc.Encode(qt, pif.QuerySide)
		if err != nil {
			t.Fatal(err)
		}
		h, err := enc.Encode(ht, pif.DBSide)
		if err != nil {
			t.Fatal(err)
		}
		if err := nm.SetQuery(q); err != nil {
			t.Fatal(err)
		}
		if got := nm.Match(h); got != c.want {
			t.Errorf("%s vs %s: got %v, want %v", c.q, c.h, got, c.want)
		}
	}
}

// TestNativeMatcherRejectsDeep pins the construction-time contract: the
// native engine does not run the levels-4/5 what-if microprograms.
func TestNativeMatcherRejectsDeep(t *testing.T) {
	for _, mp := range []Microprogram{MPLevel4, MPLevel5} {
		if _, err := NewNativeMatcher(mp); err == nil {
			t.Errorf("NewNativeMatcher(%s) succeeded, want error", mp.Name)
		}
	}
}

// TestNativeMatcherZeroAlloc enforces the allocation discipline on the
// steady-state path, query load included: a generated query (in-line
// arguments, the generic matcher) and a shared-variable query that
// compiles, each against generated heads and their grounded copies.
func TestNativeMatcherZeroAlloc(t *testing.T) {
	syms := symtab.New()
	enc := pif.NewEncoder(syms)
	gen := termgen.New(99)
	var heads []*pif.Encoded
	for len(heads) < 64 {
		_, head := gen.Pair("p", 3)
		for _, ht := range []term.Term{head, gen.Ground(head)} {
			h, err := enc.Encode(ht, pif.DBSide)
			if err != nil {
				continue // unencodable mutant (improper list)
			}
			heads = append(heads, h)
		}
	}
	generated, _ := gen.Pair("p", 3)
	for _, query := range []term.Term{generated, parse.MustTerm("p(X, X, 3)")} {
		q, err := enc.Encode(query, pif.QuerySide)
		if err != nil {
			t.Fatal(err)
		}
		nm := nativeFor(t, MPLevel3XB, q)
		if want := query != generated; nm.compiled != want {
			t.Fatalf("%v: compiled = %v, want %v", query, nm.compiled, want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := nm.SetQuery(q); err != nil {
				t.Fatal(err)
			}
			for _, h := range heads {
				nm.Match(h)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: SetQuery+Match allocated %v times per run, want 0", query, allocs)
		}
	}
}

// benchPairs is the population BenchmarkMatchEngine and
// BenchmarkMatchNative/generic share, exposing the FS2 kernel speedup in
// isolation.
func benchPairs(b *testing.B) (*pif.Encoder, *pif.Encoded, []Record) {
	syms := symtab.New()
	enc := pif.NewEncoder(syms)
	gen := termgen.New(7)
	query, _ := gen.Pair("p", 3)
	q, err := enc.Encode(query, pif.QuerySide)
	if err != nil {
		b.Fatal(err)
	}
	var recs []Record
	for len(recs) < 256 {
		_, head := gen.Pair("p", 3)
		h, err := enc.Encode(head, pif.DBSide)
		if err != nil {
			continue // unencodable mutant (improper list)
		}
		recs = append(recs, Record{Addr: uint32(len(recs)), Enc: h})
	}
	return enc, q, recs
}

func BenchmarkMatchEngine(b *testing.B) {
	_, q, recs := benchPairs(b)
	e := simFor(b, MPLevel3XB, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchNative reports the native matcher's cost per clause on
// two populations: "generic" is termgen's pairs (in-line query arguments:
// clauseMatch decides every head), "xbind_ground" the shape of the wire
// benchmark's xbind_match workload — 15 000 variable-free relation facts
// loaded from a store image, against a shared-variable goal that compiles.
func BenchmarkMatchNative(b *testing.B) {
	run := func(b *testing.B, q *pif.Encoded, heads []*pif.Encoded) {
		nm := nativeFor(b, MPLevel3XB, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, h := range heads {
				nm.Match(h)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(heads)), "ns/clause")
	}
	b.Run("generic", func(b *testing.B) {
		_, q, recs := benchPairs(b)
		heads := make([]*pif.Encoded, len(recs))
		for i, r := range recs {
			heads[i] = r.Enc
		}
		run(b, q, heads)
	})
	b.Run("xbind_ground", func(b *testing.B) {
		syms := symtab.New()
		bld, err := clausefile.NewBuilder("bench", "m", 3, syms, scw.DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 15000; i++ {
			second := i + 1
			if i%1000 == 0 {
				second = i // one fact in a thousand satisfies m(X, X, D)
			}
			head := parse.MustTerm(fmt.Sprintf("m(n%d, n%d, date(%d, %d, %d))", i, second, 1+i%28, 1+i%12, 1900+i%100))
			if err := bld.Add(head, term.Atom("true")); err != nil {
				b.Fatal(err)
			}
		}
		blob, err := bld.Build().MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		file, err := clausefile.Unmarshal(blob, syms)
		if err != nil {
			b.Fatal(err)
		}
		heads := make([]*pif.Encoded, file.Len())
		for i, sc := range file.All() {
			heads[i] = sc.Head
		}
		q, err := pif.NewEncoder(syms).Encode(parse.MustTerm("m(X, X, D)"), pif.QuerySide)
		if err != nil {
			b.Fatal(err)
		}
		run(b, q, heads)
	})
}
