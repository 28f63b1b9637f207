package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/parse"
	"clare/internal/term"
)

// oracleGoals is how many sampled goals per workload the sim engine
// answers beside the wire.
const oracleGoals = 32

// gate is the tally of one correctness check.
type gate struct {
	attempted, failed int
	firstErr          error
}

func (g *gate) fail(err error) {
	g.failed++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

func (g *gate) add(o gate) {
	g.attempted += o.attempted
	g.failed += o.failed
	if g.firstErr == nil {
		g.firstErr = o.firstErr
	}
}

var freshVar = regexp.MustCompile(`_G[0-9]+`)

// canonical renames a rendered clause's variables by first occurrence:
// two decodings of one stored clause number their fresh variables
// differently, and are the same clause.
func canonical(line string) string {
	names := make(map[string]string)
	return freshVar.ReplaceAllStringFunc(line, func(v string) string {
		if _, ok := names[v]; !ok {
			names[v] = "_" + strconv.Itoa(len(names))
		}
		return names[v]
	})
}

// renderClause is the wire's own clause line, as crs.Server writes it
// after "C ".
func renderClause(head, body term.Term) string {
	if body == nil || term.Equal(body, term.Atom("true")) {
		return fmt.Sprintf("%s.", head)
	}
	return fmt.Sprintf("%s :- %s.", head, body)
}

// sameClauses compares a wire reply with the expected clause lines,
// clause for clause, up to variable naming.
func sameClauses(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d clauses, want %d", len(got), len(want))
	}
	for i := range got {
		if canonical(got[i]) != canonical(want[i]) {
			return fmt.Errorf("clause %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// oracleCheck draws oracleGoals goals from w's read stream and has the
// sim-engine retriever and the wire answer each. They must agree clause
// for clause. ledger is the sum of the sim engine's simulated times — the
// paper's clock, which must repeat exactly for a given seed.
func oracleCheck(s *stack, w *workload, seed int64) (g gate, ledger time.Duration) {
	next := w.reads(s.kb, rand.New(rand.NewSource(seed*1000+500)), rand.New(rand.NewSource(seed*1000+700)))
	for i := 0; i < oracleGoals; i++ {
		o := next()
		g.attempted++
		goal, err := parse.Term(o.text)
		if err != nil {
			g.fail(err)
			continue
		}
		mode, err := crs.ParseMode(o.mode)
		if err != nil {
			g.fail(err)
			continue
		}
		rt, err := s.oracle.Retrieve(goal, *mode)
		if err != nil {
			g.fail(fmt.Errorf("oracle %s: %w", o.text, err))
			continue
		}
		ledger += rt.Stats.Total
		heads, bodies, err := rt.DecodeCandidates()
		if err != nil {
			g.fail(fmt.Errorf("oracle %s: %w", o.text, err))
			continue
		}
		want := make([]string, len(heads))
		for j := range heads {
			want[j] = renderClause(heads[j], bodies[j])
		}
		res, err := send(s.clients[i%len(s.clients)], o)
		if err != nil {
			g.fail(fmt.Errorf("wire %s: %w", o.text, err))
			continue
		}
		if err := sameClauses(res.Clauses, want); err != nil {
			g.fail(fmt.Errorf("wire and oracle disagree on %s: %w", o.text, err))
		}
	}
	return g, ledger
}

// model is the sequential model of write_mix: every touched predicate's
// clause lines after the acknowledged writes, applied in the order they
// were acknowledged. One writer on one connection acknowledges in
// program order, so the model needs no reordering.
func model(touched []*predicate, acked []op) (map[string][]string, error) {
	out := make(map[string][]string, len(touched))
	for _, p := range touched {
		lines := make([]string, len(p.clauses))
		for i, cl := range p.clauses {
			lines[i] = canonical(renderClause(cl.Head, cl.Body))
		}
		out[p.name] = lines
	}
	for _, o := range acked {
		t, err := parse.Term(o.text)
		if err != nil {
			return nil, err
		}
		c, ok := t.(*term.Compound)
		if !ok {
			return nil, fmt.Errorf("acknowledged write %q is not a fact", o.text)
		}
		line := canonical(renderClause(t, nil))
		lines, ok := out[c.Functor]
		if !ok {
			return nil, fmt.Errorf("acknowledged write %q is outside the touched predicates", o.text)
		}
		if o.kind == opAssert {
			out[c.Functor] = append(lines, line)
			continue
		}
		at := -1
		for i, l := range lines {
			if l == line {
				at = i
				break
			}
		}
		if at < 0 {
			return nil, fmt.Errorf("model has nothing to retract for %q", o.text)
		}
		out[c.Functor] = append(lines[:at:at], lines[at+1:]...)
	}
	return out, nil
}

// allClauses is the goal every clause of p is a candidate for.
func allClauses(p *predicate) string {
	goal := p.name + "("
	for i := 0; i < p.arity; i++ {
		if i > 0 {
			goal += ", "
		}
		goal += "A" + strconv.Itoa(i)
	}
	return goal + ")"
}

// durabilityLive compares every touched predicate, read back over the
// wire, with the model: no acknowledged write may be missing, none may
// appear twice, and order is user order.
func durabilityLive(s *stack, touched []*predicate, want map[string][]string) (g gate) {
	for _, p := range touched {
		g.attempted++
		res, err := send(s.clients[0], op{kind: opRetrieve, mode: "fs2", text: allClauses(p)})
		if err != nil {
			g.fail(fmt.Errorf("reading back %s: %w", p.name, err))
			continue
		}
		if err := sameClauses(res.Clauses, want[p.name]); err != nil {
			g.fail(fmt.Errorf("live %s differs from the acknowledged writes: %w", p.name, err))
		}
	}
	return g
}

// durabilityReopened stops the servers, then loads every shard's store
// and log into a fresh retriever the way a restarted crsd would, and
// compares again: what Recover rebuilds must be exactly the acknowledged
// writes. It reports how long the reopen's log replay took and over how
// many records. fsync=always means every acknowledged write was flushed
// before its reply; the operating system's cache is not dropped here, so
// this proves the log's content and replay, not the device's honesty.
func durabilityReopened(s *stack, touched []*predicate, want map[string][]string) (g gate, recoverTime time.Duration, records int) {
	s.stopServers()
	var reopened [shardCount]*backend
	var t setupTimes
	for i, b := range s.backends {
		nb, err := openBackend(b.path, b.walDir, &t)
		if err != nil {
			g.attempted++
			g.fail(fmt.Errorf("reopening shard %d: %w", i, err))
			return g, 0, 0
		}
		defer nb.close()
		reopened[i] = nb
	}
	fs2 := core.ModeFS2
	for _, p := range touched {
		g.attempted++
		b := reopened[s.shardOf(p)]
		goal, err := parse.Term(allClauses(p))
		if err != nil {
			g.fail(err)
			continue
		}
		sess := b.srv.OpenSession()
		rt, err := sess.Retrieve(goal, &fs2)
		sess.Close()
		if err != nil {
			g.fail(fmt.Errorf("reopened %s: %w", p.name, err))
			continue
		}
		heads, bodies, err := rt.DecodeCandidates()
		if err != nil {
			g.fail(fmt.Errorf("reopened %s: %w", p.name, err))
			continue
		}
		got := make([]string, len(heads))
		for i := range heads {
			got[i] = renderClause(heads[i], bodies[i])
		}
		if err := sameClauses(got, want[p.name]); err != nil {
			g.fail(fmt.Errorf("reopened %s lost or invented a write: %w", p.name, err))
		}
	}
	return g, t.WAL, t.RecoverRecords
}
