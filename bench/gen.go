package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"clare/internal/core"
	"clare/internal/term"
)

// The knowledge base is generated here, from the seed alone, and not by
// internal/workload: an edit to that package must not move the benchmark.
//
// Every clause count is a function of the shape, never of the seed — the
// seed picks constants (keys, names, dates) only. Two seeds therefore
// give KBs of identical geometry, which is what lets ten runs on ten
// seeds agree on timing: work per operation depends on predicate sizes,
// not on which atoms fill them.

// shape fixes the geometry of a generated knowledge base.
type shape struct {
	// Warren-shaped predicates p0..p<zipfPreds-1>, arity 2: zipfFacts
	// facts p_i(eK, J) split by Zipf 1/(i+1), plus zipfRules rules
	// p_i(X, -j) :- aux(X) each.
	zipfPreds, zipfFacts, zipfRules int
	// keyDomain bounds the K of eK.
	keyDomain int
	// Relation-shaped predicates m0..m<relPreds-1>, arity 3: relFacts
	// facts m_i(Name1, Name2, date(D,M,Y)) each, one in relSameEvery with
	// Name1 == Name2.
	relPreds, relFacts, relSameEvery, relNames int
	// Rule-heavy predicates r0..r<widePreds-1>, arity 2: wideClauses
	// clauses each, every fourth a rule r_i(X, vK) :- aux(X, K) whose
	// variable first argument makes it a candidate for every key; facts
	// are r_i(cK, vJ) over wideKeys keys.
	widePreds, wideClauses, wideKeys int
	// pointFirst is the first p_i the point lookups and writes touch
	// (the few huge predicates below it belong to big_scan).
	pointFirst int
	// bigPreds is how many of the largest p_i big_scan sweeps.
	bigPreds int
}

// fullShape is the benchmark's KB: ≈280k clauses, the largest predicate
// ≈32k — as large as three set-ups per run leave time for (a run makes
// three, and the driver makes 158 runs in under an hour). smokeShape is
// the tier-1 test's: same structure, ~2% the size.
var (
	fullShape = shape{
		zipfPreds: 300, zipfFacts: 200000, zipfRules: 10, keyDomain: 1000000,
		relPreds: 4, relFacts: 15000, relSameEvery: 1000, relNames: 5000,
		widePreds: 8, wideClauses: 2000, wideKeys: 100,
		pointFirst: 30, bigPreds: 2,
	}
	smokeShape = shape{
		zipfPreds: 40, zipfFacts: 4000, zipfRules: 2, keyDomain: 100000,
		relPreds: 2, relFacts: 400, relSameEvery: 100, relNames: 200,
		widePreds: 2, wideClauses: 120, wideKeys: 10,
		pointFirst: 4, bigPreds: 2,
	}
)

// predicate is one generated predicate: its clauses in user order and,
// for the p_i family, the key of every fact (fact j is p_i(e<keys[j]>, j)).
type predicate struct {
	name    string
	arity   int
	clauses []core.ClauseTerm
	keys    []int32
}

func (p *predicate) indicator() string { return p.name + "/" + strconv.Itoa(p.arity) }

// kb is a generated knowledge base.
type kb struct {
	shape  shape
	seed   int64
	preds  []*predicate
	byName map[string]*predicate
	// hash folds every generated constant in generation order; equal
	// hashes mean equal KBs (generator determinism is tested on it).
	hash    uint64
	clauses int
}

func (k *kb) pred(name string) *predicate { return k.byName[name] }

// zipfSizes splits total over n ranks in proportion to 1/(rank+1).
func zipfSizes(n, total int) []int {
	h := 0.0
	for i := 0; i < n; i++ {
		h += 1 / float64(i+1)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(float64(total) / h / float64(i+1))
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// generate builds the knowledge base for seed.
func generate(seed int64, sh shape) *kb {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	fold := func(vals ...int) {
		var b [8]byte
		for _, v := range vals {
			u := uint64(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	k := &kb{shape: sh, seed: seed, byName: make(map[string]*predicate)}
	add := func(p *predicate) {
		k.preds = append(k.preds, p)
		k.byName[p.name] = p
		k.clauses += len(p.clauses)
	}

	for i, n := range zipfSizes(sh.zipfPreds, sh.zipfFacts) {
		p := &predicate{name: "p" + strconv.Itoa(i), arity: 2}
		p.clauses = make([]core.ClauseTerm, 0, n+sh.zipfRules)
		p.keys = make([]int32, n)
		for j := 0; j < n; j++ {
			key := rng.Intn(sh.keyDomain)
			p.keys[j] = int32(key)
			fold(i, key)
			p.clauses = append(p.clauses, core.ClauseTerm{
				Head: term.New(p.name, term.Atom("e"+strconv.Itoa(key)), term.Int(int64(j))),
			})
		}
		for j := 0; j < sh.zipfRules; j++ {
			x := term.NewVar("X")
			p.clauses = append(p.clauses, core.ClauseTerm{
				Head: term.New(p.name, x, term.Int(int64(-j-1))),
				Body: term.New("aux", x),
			})
		}
		add(p)
	}

	for i := 0; i < sh.relPreds; i++ {
		p := &predicate{name: "m" + strconv.Itoa(i), arity: 3}
		p.clauses = make([]core.ClauseTerm, 0, sh.relFacts)
		for j := 0; j < sh.relFacts; j++ {
			a := rng.Intn(sh.relNames)
			b := rng.Intn(sh.relNames - 1)
			if b >= a {
				b++ // never equal by chance: the same-name share is exact
			}
			if j%sh.relSameEvery == sh.relSameEvery/2 {
				b = a
			}
			d, mo, y := 1+rng.Intn(28), 1+rng.Intn(12), 1900+rng.Intn(100)
			fold(i, a, b, d, mo, y)
			p.clauses = append(p.clauses, core.ClauseTerm{
				Head: term.New(p.name,
					term.Atom("n"+strconv.Itoa(a)), term.Atom("n"+strconv.Itoa(b)),
					term.New("date", term.Int(int64(d)), term.Int(int64(mo)), term.Int(int64(y)))),
			})
		}
		add(p)
	}

	for i := 0; i < sh.widePreds; i++ {
		p := &predicate{name: "r" + strconv.Itoa(i), arity: 2}
		p.clauses = make([]core.ClauseTerm, 0, sh.wideClauses)
		for j := 0; j < sh.wideClauses; j++ {
			val := term.Atom("v" + strconv.Itoa(j))
			if j%4 == 3 {
				x := term.NewVar("X")
				p.clauses = append(p.clauses, core.ClauseTerm{
					Head: term.New(p.name, x, val),
					Body: term.New("aux", x, term.Int(int64(j))),
				})
				continue
			}
			key := rng.Intn(sh.wideKeys)
			fold(i, key)
			p.clauses = append(p.clauses, core.ClauseTerm{
				Head: term.New(p.name, term.Atom("c"+strconv.Itoa(key)), val),
			})
		}
		add(p)
	}
	k.hash = h.Sum64()
	return k
}

// zipfPicker draws ranks 0..n-1 with probability ∝ 1/(rank+first+1).
type zipfPicker struct{ cdf []float64 }

func newZipfPicker(n, first int) *zipfPicker {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+first+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfPicker{cdf: cdf}
}

func (z *zipfPicker) pick(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// factGoal is the ground goal matching exactly fact j of a p_i predicate.
func (p *predicate) factGoal(j int) string {
	return p.name + "(e" + strconv.Itoa(int(p.keys[j])) + ", " + strconv.Itoa(j) + ")"
}

// facts is the number of p_i facts (the rules follow them).
func (p *predicate) facts() int { return len(p.keys) }

func (k *kb) String() string {
	return fmt.Sprintf("kb seed=%d predicates=%d clauses=%d hash=%016x", k.seed, len(k.preds), k.clauses, k.hash)
}
