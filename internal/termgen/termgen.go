// Package termgen generates random Prolog terms from a seeded source —
// the raw material for the property-based soundness oracle (package ptu)
// and the chaos workloads (package core). The same seed always yields
// the same term sequence, so a failing pair is reproducible from its
// seed and index alone.
//
// The generator is tuned for filter testing rather than uniform
// sampling: constant pools are kept small so contents collide (both
// matches and near-misses are common), variables are re-used within a
// scope to produce the shared-variable patterns the cross-binding check
// exists for (§2.1), and Pair can derive one side from the other so that
// true unifiers appear at a useful rate instead of almost never.
package termgen

import (
	"fmt"
	"math/rand"

	"clare/internal/term"
)

// Config bounds the generated terms. The zero value of any field selects
// its default.
type Config struct {
	// MaxDepth is the compound-nesting budget of a generated argument
	// (default 3).
	MaxDepth int
	// MaxArity bounds the arity of generated sub-compounds (default 4).
	MaxArity int
	// MaxListLen bounds generated list lengths (default 4).
	MaxListLen int
	// ShareProb is the chance a variable slot re-uses an earlier variable
	// of the current scope — the shared-variable generator (default 0.35).
	ShareProb float64
	// OpenProb is the chance a generated list is unterminated, with a
	// variable tail — the paper's "unlimited list" (default 0.25).
	OpenProb float64
	// MutateProb is the per-node chance Mutate rewrites a node instead of
	// copying it (default 0.3).
	MutateProb float64
	// Functors and Atoms are the symbol pools.
	Functors []string
	Atoms    []string
}

func (c *Config) fill() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MaxArity <= 0 {
		c.MaxArity = 4
	}
	if c.MaxListLen <= 0 {
		c.MaxListLen = 4
	}
	if c.ShareProb <= 0 {
		c.ShareProb = 0.35
	}
	if c.OpenProb <= 0 {
		c.OpenProb = 0.25
	}
	if c.MutateProb <= 0 {
		c.MutateProb = 0.3
	}
	if len(c.Functors) == 0 {
		c.Functors = []string{"f", "g", "h"}
	}
	if len(c.Atoms) == 0 {
		c.Atoms = []string{"a", "b", "c", "d"}
	}
}

// Gen is a seeded term generator. Not safe for concurrent use; give each
// goroutine its own Gen.
type Gen struct {
	rng  *rand.Rand
	cfg  Config
	vars []*term.Var
	// mumap maps one scope's variables to their counterparts in the
	// opposite scope, so Mutate preserves sharing patterns (a variable
	// occurring twice in the source occurs twice in the mutant).
	mumap map[*term.Var]term.Term
}

// New returns a generator with default bounds.
func New(seed int64) *Gen { return NewWithConfig(seed, Config{}) }

// NewWithConfig returns a generator with explicit bounds.
func NewWithConfig(seed int64, cfg Config) *Gen {
	cfg.fill()
	return &Gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg, mumap: make(map[*term.Var]term.Term)}
}

// Reset starts a fresh variable scope: subsequent Var calls no longer
// share with earlier ones. Use it between the two sides of a query/head
// pair (Pair does this itself).
func (g *Gen) Reset() {
	g.vars = g.vars[:0]
	clear(g.mumap)
}

// Var returns a variable of the current scope: usually fresh, sometimes
// (ShareProb) a re-occurrence of an earlier one.
func (g *Gen) Var() term.Term {
	if len(g.vars) > 0 && g.rng.Float64() < g.cfg.ShareProb {
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	v := term.NewVar(fmt.Sprintf("V%d", len(g.vars)))
	g.vars = append(g.vars, v)
	return v
}

func (g *Gen) atom() term.Term { return term.Atom(g.cfg.Atoms[g.rng.Intn(len(g.cfg.Atoms))]) }

// constant draws an atom, a small integer, or a float from deliberately
// small pools, so content comparisons hit both equal and unequal cases.
func (g *Gen) constant() term.Term {
	switch g.rng.Intn(4) {
	case 0:
		return term.Int(g.rng.Intn(10))
	case 1:
		return term.Float(float64(g.rng.Intn(8)) / 2)
	default:
		return g.atom()
	}
}

// Term generates one random term with the given nesting budget.
func (g *Gen) Term(depth int) term.Term {
	k := g.rng.Intn(10)
	if depth <= 0 && k >= 6 {
		k = g.rng.Intn(6)
	}
	switch {
	case k < 2:
		return g.Var()
	case k < 4:
		return g.atom()
	case k < 5:
		return term.Int(g.rng.Intn(10))
	case k < 6:
		return term.Float(float64(g.rng.Intn(8)) / 2)
	case k < 8:
		arity := 1 + g.rng.Intn(g.cfg.MaxArity)
		args := make([]term.Term, arity)
		for i := range args {
			args[i] = g.Term(depth - 1)
		}
		return term.New(g.cfg.Functors[g.rng.Intn(len(g.cfg.Functors))], args...)
	default:
		n := g.rng.Intn(g.cfg.MaxListLen + 1)
		elems := make([]term.Term, n)
		for i := range elems {
			elems[i] = g.Term(depth - 1)
		}
		tail := term.Term(term.NilAtom)
		if g.rng.Float64() < g.cfg.OpenProb {
			tail = g.Var()
		}
		return term.ListTail(tail, elems...)
	}
}

// Goal generates a callable term of the given functor and arity in a
// fresh variable scope (arity 0 yields the atom).
func (g *Gen) Goal(functor string, arity int) term.Term {
	g.Reset()
	args := make([]term.Term, arity)
	for i := range args {
		args[i] = g.Term(g.cfg.MaxDepth)
	}
	return term.New(functor, args...)
}

// Pair generates a query goal and a clause head of the same functor and
// arity, in disjoint variable scopes. Half the time the head is an
// independent random term; the other half it is a Mutate of the query,
// so the stream contains true unifiers, near-misses, and unrelated pairs
// in useful proportions.
func (g *Gen) Pair(functor string, arity int) (query, head term.Term) {
	g.Reset()
	qargs := make([]term.Term, arity)
	for i := range qargs {
		qargs[i] = g.Term(g.cfg.MaxDepth)
	}
	g.Reset()
	hargs := make([]term.Term, arity)
	related := g.rng.Float64() < 0.5
	for i := range hargs {
		if related {
			hargs[i] = g.mutate(qargs[i], g.cfg.MaxDepth)
		} else {
			hargs[i] = g.Term(g.cfg.MaxDepth)
		}
	}
	return term.New(functor, qargs...), term.New(functor, hargs...)
}

// Ground returns t with every variable replaced by a constant (an open
// list's tail variable by [], closing the list): the variable-free facts
// that make up most of a knowledge base. Occurrences of one variable get
// independent constants.
func (g *Gen) Ground(t term.Term) term.Term {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		return g.constant()
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = g.Ground(a)
		}
		if _, tail, ok := term.IsCons(t); ok {
			if _, open := term.Deref(tail).(*term.Var); open {
				args[1] = term.NilAtom
			}
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// Mutate returns a structural variant of t built from the current
// scope's variables: most nodes are copied (variables mapped
// consistently into this scope, preserving sharing), and MutateProb of
// them are rewritten into a variable, a constant, or a fresh subterm.
func (g *Gen) Mutate(t term.Term) term.Term { return g.mutate(t, g.cfg.MaxDepth) }

func (g *Gen) mutate(t term.Term, depth int) term.Term {
	t = term.Deref(t)
	if g.rng.Float64() < g.cfg.MutateProb {
		switch g.rng.Intn(3) {
		case 0:
			return g.Var()
		case 1:
			return g.constant()
		default:
			return g.Term(depth)
		}
	}
	switch t := t.(type) {
	case *term.Var:
		if mt, ok := g.mumap[t]; ok {
			return mt
		}
		mt := g.Var()
		g.mumap[t] = mt
		return mt
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = g.mutate(a, depth-1)
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}
