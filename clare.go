// Package clare is the public API of the CLARE reproduction: an
// integrated Prolog data/knowledge base system in which large predicates
// live on (simulated) disk behind a two-stage clause-retrieval engine —
// FS1, a superimposed-codeword-plus-mask-bits index filter, and FS2, a
// microprogrammed partial test unification engine — while the host Prolog
// machine performs full unification and resolution on the survivors.
//
// Reproduces: Kam-Fai Wong and M. Howard Williams, "A Type Driven Hardware
// Engine for Prolog Clause Retrieval over a Large Knowledge Base",
// ISCA 1989.
//
// Quick start:
//
//	kb, _ := clare.NewKB(clare.Defaults())
//	kb.ConsultString(`grandparent(X,Z) :- parent(X,Y), parent(Y,Z).`)
//	kb.LoadDiskPredicateString("family", `
//	    parent(tom, bob).
//	    parent(bob, ann).
//	`)
//	sols, _ := kb.Query("grandparent(tom, W)", 0)
package clare

import (
	"fmt"
	"io"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/disk"
	"clare/internal/engine"
	"clare/internal/fs2"
	"clare/internal/parse"
	"clare/internal/scw"
	"clare/internal/term"
)

// SearchMode selects how a disk-resident predicate is searched — the four
// CRS modes of §2.2.
type SearchMode = core.SearchMode

// The four search modes.
const (
	ModeSoftware = core.ModeSoftware
	ModeFS1      = core.ModeFS1
	ModeFS2      = core.ModeFS2
	ModeFS1FS2   = core.ModeFS1FS2
)

// Solution is one query answer: variable name → resolved term.
type Solution = engine.Solution

// Retrieval reports one CLARE search call with per-stage statistics.
type Retrieval = core.Retrieval

// Options configures a knowledge base.
type Options struct {
	// Disk is the drive model disk-resident predicates live on.
	Disk disk.Model
	// CodewordWidth and CodewordBits configure the FS1 index (SCW+MB).
	CodewordWidth int
	CodewordBits  int
	// MaskBits toggles the mask-bit extension (ablation only; disabling
	// it makes FS1 unsound for variable-bearing heads).
	MaskBits bool
	// CrossBinding toggles the FS2 cross-binding checks.
	CrossBinding bool
	// Mode pins the search mode for every retrieval; nil selects per
	// query via the CRS heuristic.
	Mode *SearchMode
	// Engine selects the execution engine: "sim" (or empty, the default)
	// is the cycle-accurate simulation on the paper's one board, and
	// "native" the vectorized host engine (identical candidates, no cycle
	// model for FS2). The library defaults to the simulation, unlike the
	// crsd daemon, because what it reports — FS2Stats, DiskStats, the
	// per-stage simulated times examples/quickstart prints — is the
	// simulated hardware.
	Engine string
	// Out receives Prolog output (write/1 etc.); nil means os.Stdout.
	Out io.Writer
}

// Defaults mirrors the paper's configuration: Fujitsu M2351A disk, 64-bit
// codewords with mask bits, level-3 + cross-binding FS2 microprogram,
// heuristic mode selection.
func Defaults() Options {
	return Options{
		Disk:          disk.FujitsuM2351A,
		CodewordWidth: scw.DefaultParams.Width,
		CodewordBits:  scw.DefaultParams.BitsPerKey,
		MaskBits:      true,
		CrossBinding:  true,
	}
}

// KB is an integrated Prolog knowledge base: a Prolog machine for small
// (memory-resident) modules plus a CLARE retriever for large
// (disk-resident) predicates, per the PDBM architecture (§2).
type KB struct {
	// Machine is the host Prolog engine.
	Machine *engine.Machine
	// Retriever is the CLARE pipeline.
	Retriever *core.Retriever
	// Server is the Clause Retrieval Server wrapped around the retriever.
	Server *crs.Server

	opts    Options
	session *crs.Session
}

// NewKB builds a knowledge base.
func NewKB(opts Options) (*KB, error) {
	mp := fs2.MPLevel3XB
	if !opts.CrossBinding {
		mp = fs2.MPLevel3
	}
	cfg := core.Config{
		Disk: opts.Disk,
		SCW: scw.Params{
			Width:      opts.CodewordWidth,
			BitsPerKey: opts.CodewordBits,
			MaskBits:   opts.MaskBits,
		},
		Microprogram: mp,
	}
	var err error
	if cfg.Engine, err = core.ParseEngine(opts.Engine); err != nil {
		return nil, err
	}
	r, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	m := engine.New()
	if opts.Out != nil {
		m.Out = opts.Out
	}
	srv := crs.NewServer(r)
	return &KB{
		Machine:   m,
		Retriever: r,
		Server:    srv,
		opts:      opts,
		session:   srv.OpenSession(),
	}, nil
}

// ConsultString loads Prolog source into the host machine (a small,
// memory-resident module).
func (kb *KB) ConsultString(src string) error { return kb.Machine.ConsultString(src) }

// LoadDiskPredicate installs clauses as a disk-resident predicate managed
// by CLARE. All clauses must share one functor/arity; order is preserved.
func (kb *KB) LoadDiskPredicate(module string, clauses []core.ClauseTerm) error {
	if err := kb.Server.Load(module, clauses); err != nil {
		return err
	}
	head := term.Deref(clauses[0].Head)
	var pi engine.Indicator
	switch h := head.(type) {
	case term.Atom:
		pi = engine.Indicator{Name: string(h)}
	case *term.Compound:
		pi = engine.Indicator{Name: h.Functor, Arity: len(h.Args)}
	default:
		return fmt.Errorf("clare: %v is not callable", head)
	}
	mod := kb.Machine.Module("user")
	proc := mod.Proc(pi, true)
	proc.Source = &core.Source{R: kb.Retriever, Mode: kb.opts.Mode}
	return nil
}

// LoadDiskPredicateString parses Prolog source (facts and rules of ONE
// predicate) and installs it as a disk-resident predicate.
func (kb *KB) LoadDiskPredicateString(module, src string) error {
	p, err := parse.NewWithOps(src, kb.Machine.Ops())
	if err != nil {
		return err
	}
	ts, err := p.ReadAll()
	if err != nil {
		return err
	}
	clauses := make([]core.ClauseTerm, 0, len(ts))
	for _, t := range ts {
		if c, ok := t.(*term.Compound); ok && c.Functor == ":-" && len(c.Args) == 2 {
			clauses = append(clauses, core.ClauseTerm{Head: c.Args[0], Body: c.Args[1]})
			continue
		}
		clauses = append(clauses, core.ClauseTerm{Head: t})
	}
	if len(clauses) == 0 {
		return fmt.Errorf("clare: no clauses in source")
	}
	return kb.LoadDiskPredicate(module, clauses)
}

// Query runs a Prolog query through the host machine (which retrieves
// disk-resident predicates through CLARE) and returns up to max solutions
// (max <= 0 means all).
func (kb *KB) Query(src string, max int) ([]Solution, error) {
	return kb.Machine.Query(src, max)
}

// Prove reports whether the goal has at least one solution.
func (kb *KB) Prove(src string) (bool, error) { return kb.Machine.ProveString(src) }

// Retrieve runs one raw CLARE search call (no resolution) and returns the
// retrieval with its per-stage statistics. goal is Edinburgh source.
func (kb *KB) Retrieve(goal string, mode SearchMode) (*Retrieval, error) {
	g, err := parse.Term(goal)
	if err != nil {
		return nil, err
	}
	return kb.session.Retrieve(g, &mode)
}

// RetrieveAuto is Retrieve with heuristic mode selection.
func (kb *KB) RetrieveAuto(goal string) (*Retrieval, error) {
	g, err := parse.Term(goal)
	if err != nil {
		return nil, err
	}
	return kb.session.Retrieve(g, nil)
}

// FS2Stats exposes the accumulated FS2 statistics of the simulated board
// (zero on the native engine, which drives none).
func (kb *KB) FS2Stats() fs2.Stats { return kb.Retriever.FS2Stats() }

// DiskStats exposes the accumulated simulated-disk statistics.
func (kb *KB) DiskStats() disk.Stats { return kb.Retriever.DiskStats() }

// QueryCacheStats reports the query-encoding cache's hit/miss counters.
func (kb *KB) QueryCacheStats() core.QueryCacheStats { return kb.Retriever.QueryCache() }

// Table1 returns the derived FS2 operation times (the paper's Table 1).
func Table1() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for code, d := range fs2.Table1() {
		out[code.String()] = d
	}
	return out
}
