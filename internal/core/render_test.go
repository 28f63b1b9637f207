package core

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"clare/internal/parse"
	"clare/internal/term"
)

var genName = regexp.MustCompile(`_G[0-9]+`)

// checkCandidateLines holds a retrieval's word-rendered candidate lines
// against the oracle — DecodeCandidates' terms printed the way the CRS
// reply prints a clause — up to the numbering of _G names.
func checkCandidateLines(t testing.TB, rt *Retrieval) {
	t.Helper()
	heads, bodies, err := rt.DecodeCandidates()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i := range heads {
		if term.Equal(bodies[i], term.Atom("true")) {
			fmt.Fprintf(&want, "C %s.\n", heads[i])
		} else {
			fmt.Fprintf(&want, "C %s :- %s.\n", heads[i], bodies[i])
		}
	}
	got, err := rt.AppendCandidateLines([]byte("kept"), "C ")
	if err != nil {
		t.Fatal(err)
	}
	mask := func(s string) string { return genName.ReplaceAllString(s, "_G") }
	if g, w := mask(string(got)), mask("kept"+want.String()); g != w {
		t.Fatalf("%s %s: rendered lines\n%s\ndecode-and-print\n%s", rt.Predicate, rt.Mode, g, w)
	}
}

// wideRetrieval is bench/'s wide_reply shape: a 2000-clause predicate in
// which every fourth clause is a rule with a variable first argument, so
// r(c3, V) has 520 candidates, almost all rules.
func wideRetrieval(t testing.TB) *Retrieval {
	t.Helper()
	clauses := make([]ClauseTerm, 0, 2000)
	for j := 0; j < 2000; j++ {
		val := term.Atom(fmt.Sprintf("v%d", j))
		if j%4 == 3 {
			x := term.NewVar("X")
			clauses = append(clauses, ClauseTerm{Head: term.New("r", x, val), Body: term.New("aux", x, term.Int(int64(j)))})
		} else {
			clauses = append(clauses, ClauseTerm{Head: term.New("r", term.Atom(fmt.Sprintf("c%d", j*7%100)), val)})
		}
	}
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddClauses("wide", clauses); err != nil {
		t.Fatal(err)
	}
	rt, err := r.Retrieve(parse.MustTerm("r(c3, V)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Candidates) != 520 {
		t.Fatalf("%d candidates, want 520", len(rt.Candidates))
	}
	return rt
}

func TestAppendCandidateLines(t *testing.T) {
	rt := wideRetrieval(t)
	checkCandidateLines(t, rt)
	buf, err := rt.AppendCandidateLines(nil, "C ")
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { buf, _ = rt.AppendCandidateLines(buf[:0], "C ") }); avg != 0 {
		t.Errorf("rendering into a reused buffer allocates %.1f times per reply", avg)
	}
}

var renderSink int

// BenchmarkRenderCandidates prices a wide reply's candidate lines without
// the wire: rendered from the stored words into a reused buffer (what
// the RETRIEVE handler does), against decoding every candidate into
// terms and printing those (what it did, and what the host API and the
// oracle still do).
func BenchmarkRenderCandidates(b *testing.B) {
	rt := wideRetrieval(b)
	perClause := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rt.Candidates)), "ns/clause")
	}
	b.Run("words", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = rt.AppendCandidateLines(buf[:0], "C "); err != nil {
				b.Fatal(err)
			}
		}
		renderSink += len(buf)
		perClause(b)
	})
	b.Run("decode+print", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heads, bodies, err := rt.DecodeCandidates()
			if err != nil {
				b.Fatal(err)
			}
			for j := range heads {
				renderSink += len(fmt.Sprintf("C %s :- %s.\n", heads[j], bodies[j]))
			}
		}
		perClause(b)
	})
}
