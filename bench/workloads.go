package main

import (
	"math/rand"
	"strconv"
)

type opKind uint8

const (
	opRetrieve opKind = iota
	opAssert
	opRetract
)

// op is one wire operation: a retrieval in a given mode, or a durable
// write. text is Edinburgh source without the final '.'.
type op struct {
	kind opKind
	mode string
	text string
}

// Sizes shared by the goal streams.
const (
	// workingSet goals fit the backends' 1024-entry query-encoding cache
	// with room to spare, so point lookups hit it after warm-up.
	workingSet = 256
	// hotPreds is how many predicates write_mix touches. A small fixed
	// set makes the reader meet the writer's predicate lock often enough
	// (1 read in hotPreds) to show in the reader's tail, and keeps the
	// rebuilt-clauses-per-write mean the same on every seed.
	hotPreds = 16
	// pendingWrites is how many asserted facts the writer keeps before it
	// starts retracting the oldest.
	pendingWrites = 4
	// openRate is point_open's offered load in retrievals per second over
	// both connections, frozen: about a fifth of point_lookup's closed-loop
	// rate on the commit that defined the benchmark. At two fifths every
	// garbage-collection mark phase (which halves the two cores' capacity
	// for a third of a second) tipped the run into a backlog, and no
	// percentile repeated from seed to seed.
	openRate = 2000
	// freshBase is the second argument of the first fact the writer
	// asserts: above every generated fact ordinal, inside PIF's 28-bit
	// in-line integer range.
	freshBase = 100000000
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// open selects the open loop (seeded arrivals at openRate, latency
	// from due time); otherwise each client sends its next request when
	// the previous reply is in.
	open bool
	// writer makes client 0 a writer (asserts and retracts) while the
	// other clients read.
	writer bool
	// writeView reports the writer's operations as the end-to-end
	// latency and rate; otherwise the readers'.
	writeView bool
	// tail is the latency percentile of the whole window reported as
	// tail_us: the highest that repeated within the metric's bound over
	// ten seeds. Percentiles above it are in the traced pass's loadgen.*.
	tail float64
	// reads builds one reader's goal stream. set seeds whatever the
	// readers share (the working set); pick is the reader's own.
	reads func(k *kb, set, pick *rand.Rand) func() op
	// siblings, when set, returns n retrievals of equal cost that do not
	// share a query-cache entry — the traced pass sends one per layer
	// level, so a level never finds the entry the level before it left.
	// When nil the same goal is sent at every level (its entry is warm
	// at every level, as it is in the untraced run).
	siblings func(k *kb, rng *rand.Rand) func(n int) []op
}

// workloads is the benchmark's fixed list; BENCHMARK.json names the same.
var workloads = []*workload{
	{
		name: "point_lookup",
		why:  "both arguments bound, 256-goal working set that fits the query cache, 1 candidate: wire, router hop and per-retrieval accounting do the work, the FS1/FS2 kernels almost none",
		tail: 0.95, reads: pointReads,
	},
	{
		name: "point_open",
		why:  "the point_lookup goals offered open-loop at a fixed seeded rate: latency from due time shows the queueing a closed loop hides",
		open: true, tail: 0.75, reads: pointReads,
	},
	{
		name: "big_scan",
		why:  "keys uniform over the two largest predicates (far more goals than the query cache holds): the FS1 columnar scan and query encoding on a cache miss dominate, the reply is one line",
		tail: 0.95, reads: bigReads, siblings: bigSiblings,
	},
	{
		name: "xbind_match",
		why:  "shared-variable goal m_i(X,X,D) in fs2 mode: the codeword filter is blind, the native matcher's cross-binding check walks every clause and a handful survive",
		tail: 0.95, reads: xbindReads,
	},
	{
		name: "wide_reply",
		why:  "r_i(cK,V) returns about 500 rule candidates from a tiny scan: candidate decode, term rendering, per-line reply writes, router re-framing and client parsing dominate",
		tail: 0.95, reads: wideReads,
	},
	{
		name:   "write_mix",
		why:    "one writer (durable assert, retract of the oldest) beside one reader on the same 16 predicates, reported from the writer's side: WAL append+fsync and the whole-predicate rebuild under the write lock",
		writer: true, writeView: true, tail: 0.95, reads: hotReads,
	},
	{
		name:   "write_mix_reads",
		why:    "the write_mix traffic reported from the reader's side: the writer's lock hold time is the reader's tail, so a write-path change that taxes reads (or the reverse) shows here",
		writer: true, tail: 0.95, reads: hotReads,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workingSetReads draws a fixed set of fact goals with pickGoal, then
// serves them by Zipf rank.
func workingSetReads(pick *rand.Rand, pickGoal func() string) func() op {
	goals := make([]string, workingSet)
	for i := range goals {
		goals[i] = pickGoal()
	}
	ranks := newZipfPicker(len(goals), 0)
	return func() op {
		return op{kind: opRetrieve, mode: "fs1+fs2", text: goals[ranks.pick(pick)]}
	}
}

func pointPreds(k *kb) []*predicate { return k.preds[k.shape.pointFirst:k.shape.zipfPreds] }

func pointReads(k *kb, set, pick *rand.Rand) func() op {
	preds := pointPreds(k)
	byZipf := newZipfPicker(len(preds), k.shape.pointFirst)
	return workingSetReads(pick, func() string {
		p := preds[byZipf.pick(set)]
		return p.factGoal(set.Intn(p.facts()))
	})
}

func bigPreds(k *kb) []*predicate { return k.preds[:k.shape.bigPreds] }

func bigReads(k *kb, _, pick *rand.Rand) func() op {
	next := bigSiblings(k, pick)
	return func() op { return next(1)[0] }
}

func bigSiblings(k *kb, rng *rand.Rand) func(n int) []op {
	preds := bigPreds(k)
	return func(n int) []op {
		p := preds[rng.Intn(len(preds))]
		out := make([]op, n)
		for i := range out {
			out[i] = op{kind: opRetrieve, mode: "fs1+fs2", text: p.factGoal(rng.Intn(p.facts()))}
		}
		return out
	}
}

func relPreds(k *kb) []*predicate {
	return k.preds[k.shape.zipfPreds : k.shape.zipfPreds+k.shape.relPreds]
}

func xbindReads(k *kb, _, pick *rand.Rand) func() op {
	preds := relPreds(k)
	return func() op {
		return op{kind: opRetrieve, mode: "fs2", text: preds[pick.Intn(len(preds))].name + "(X, X, D)"}
	}
}

func widePreds(k *kb) []*predicate { return k.preds[k.shape.zipfPreds+k.shape.relPreds:] }

func wideReads(k *kb, _, pick *rand.Rand) func() op {
	preds := widePreds(k)
	return func() op {
		p := preds[pick.Intn(len(preds))]
		return op{kind: opRetrieve, mode: "fs1+fs2", text: p.name + "(c" + strconv.Itoa(pick.Intn(k.shape.wideKeys)) + ", V)"}
	}
}

// hotSet is write_mix's predicates: hotPreds of them at a fixed stride
// over the point-lookup range, so their sizes (and with them the cost of
// a rebuild) are the same on every seed.
func hotSet(k *kb) []*predicate {
	span := k.shape.zipfPreds - k.shape.pointFirst
	n := hotPreds
	if n > span {
		n = span
	}
	out := make([]*predicate, n)
	for i := range out {
		out[i] = k.preds[k.shape.pointFirst+i*(span/n)]
	}
	return out
}

func hotReads(k *kb, set, pick *rand.Rand) func() op {
	preds := hotSet(k)
	return workingSetReads(pick, func() string {
		p := preds[set.Intn(len(preds))]
		return p.factGoal(set.Intn(p.facts()))
	})
}

// writer produces write_mix's write stream: assert a fresh fact on a hot
// predicate; once pendingWrites are outstanding, retract the oldest.
// Fresh facts never collide with generated ones (their second argument
// starts above every fact ordinal), so reader goals keep exactly one
// candidate whatever the writer has done.
type writer struct {
	preds   []*predicate
	rng     *rand.Rand
	serial  int
	pending []string
}

func newWriter(k *kb, rng *rand.Rand) *writer {
	return &writer{preds: hotSet(k), rng: rng}
}

// fresh returns a clause no one has asserted yet, on predicate p.
func (w *writer) fresh(p *predicate) string {
	w.serial++
	return p.name + "(w" + strconv.Itoa(w.serial) + ", " + strconv.Itoa(freshBase+w.serial) + ")"
}

func (w *writer) next() op {
	if len(w.pending) >= pendingWrites {
		oldest := w.pending[0]
		w.pending = w.pending[1:]
		return op{kind: opRetract, text: oldest}
	}
	cl := w.fresh(w.preds[w.rng.Intn(len(w.preds))])
	w.pending = append(w.pending, cl)
	return op{kind: opAssert, text: cl}
}
