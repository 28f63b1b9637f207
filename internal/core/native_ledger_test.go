package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clare/internal/disk"
	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/scw"
	"clare/internal/term"
)

// ledgerClauses is the knowledge base of the ledger tests: f/2, equal-size
// facts under unique keys (a goal on one key has its survivor where the
// test puts it), and g/2, whose every seventh head carries a variable, so
// its index has masked entries — which survive every query — in most
// blocks.
func ledgerClauses(nf, ng int) (f, g []ClauseTerm) {
	f = make([]ClauseTerm, nf)
	for i := range f {
		f[i] = ClauseTerm{Head: term.New("f", term.Atom(fmt.Sprintf("k%d", i)), term.Atom(fmt.Sprintf("v%d", i)))}
	}
	g = make([]ClauseTerm, ng)
	for i := range g {
		key := term.Term(term.Atom(fmt.Sprintf("k%d", i)))
		if i%7 == 3 {
			key = term.NewVar("Any")
		}
		g[i] = ClauseTerm{Head: term.New("g", key, term.Atom(fmt.Sprintf("w%d", i)))}
	}
	return f, g
}

// TestNativeLedgerDerived: over chunk sizes from one entry to more than
// the file, and goals whose survivors fall on a chunk's first entry, its
// last, in no chunk at all and in masked blocks, the fs1+fs2 ledger native
// EXPLAIN derives — after the retrieval, from where the survivors lie — is
// the sim engine's, field for field, except for the FS2-match term. (f's
// records are all one size, so on it the sim engine's truncated-average
// fetch is exact, and a chunk's fetch always outlasts its match, so
// DiskFetch and Total agree too; g's records vary, and there the two
// engines' documented fetch terms differ.) A few Totals are pinned as the
// native engine printed them while it still charged a drive chunk by
// chunk. The native retrievals themselves charge nothing.
func TestNativeLedgerDerived(t *testing.T) {
	const nf, ng = 3000, 200
	f, g := ledgerClauses(nf, ng)
	track := DefaultConfig().Disk.TrackBytes / scw.EntrySize
	pinned := map[string]time.Duration{
		"chunk=1/f-first":      379378316,
		"chunk=3/g-masked":     769177320,
		"chunk=track/f-first":  71649188,
		"chunk=track/f-last":   71716188,
		"chunk=track/f-none":   46573844,
		"chunk=track/g-masked": 53697688,
		"chunk=n/f-first":      72214688,
		"chunk=n+1/f-last":     72181188,
	}
	seen := 0
	for _, tc := range []struct {
		name  string
		chunk int
	}{{"1", 1}, {"3", 3}, {"track", 0}, {"n", nf}, {"n+1", nf + 1}} {
		cfg := DefaultConfig()
		cfg.StreamChunkEntries = tc.chunk
		sim, native := buildEnginePair(t, cfg, "ledger", f)
		for _, r := range []*Retriever{sim, native} {
			if _, err := r.AddClauses("ledger", g); err != nil {
				t.Fatal(err)
			}
		}
		c := tc.chunk
		if c == 0 {
			c = track
		}
		mid := (nf / c / 2) * c // first entry of a middle chunk
		goals := []struct{ name, src string }{
			{"f-first", fmt.Sprintf("f(k%d, X)", mid)},
			{"f-last", fmt.Sprintf("f(k%d, X)", min(mid+c, nf)-1)},
			{"f-none", "f(absent, X)"},
			{"g-masked", "g(k5, X)"},
		}
		for _, gl := range goals {
			name := "chunk=" + tc.name + "/" + gl.name
			goal := parse.MustTerm(gl.src)
			diffRetrieve(t, sim, native, goal, ModeFS1FS2)
			p, err := native.Explain(goal, ModeFS1FS2)
			if err != nil {
				t.Fatal(err)
			}
			srt, err := sim.Retrieve(goal, ModeFS1FS2)
			if err != nil {
				t.Fatal(err)
			}
			ns, ss := p.Stats, srt.Stats
			type ledger struct {
				IndexBytes, ClauseBytes, Chunks, AfterFS1, MaskedHits int
				FS1Scan, DiskFetch, Total                             time.Duration
			}
			of := func(st StageStats) ledger {
				return ledger{st.IndexBytes, st.ClauseBytes, st.Chunks, st.AfterFS1, st.MaskedHits, st.FS1Scan, st.DiskFetch, st.Total}
			}
			if gl.name == "g-masked" {
				ss.DiskFetch, ss.Total = ns.DiskFetch, ns.Total
			}
			if got := of(ns); got != of(ss) {
				t.Errorf("%s: native EXPLAIN ledger %+v, sim engine %+v", name, got, of(ss))
			}
			if gl.name == "g-masked" && ns.MaskedHits == 0 {
				t.Errorf("%s: no masked survivor", name)
			}
			if gl.name == "f-none" && ns.AfterFS1 != 0 {
				t.Errorf("%s: %d survivors, want empty chunks only", name, ns.AfterFS1)
			}
			if p, ok := pinned[name]; ok {
				seen++
				if ns.Total != p {
					t.Errorf("%s: Total = %d, pinned %d", name, ns.Total, p)
				}
			}
		}
		if got := native.DiskStats(); got != (disk.Stats{}) {
			t.Errorf("chunk=%s: native DiskStats %+v, want zero", tc.name, got)
		}
	}
	if seen != len(pinned) {
		t.Errorf("%d of %d pinned totals were checked", seen, len(pinned))
	}
}

// TestNativeLedgerByHand: native EXPLAIN prices modes software, fs1 and
// fs2 from the retrieval's counts alone, and each Total below is worked
// out from the drive model by hand, not printed. The M2351A positions in
// 18 ms + half of 60 s/3961 (15 147 689 ns truncated, halved) =
// 25 573 844 ns and streams 2 MB/s; FS1 scans 4.5 MB/s. Each f record is
// 67 B: 8 B framing, the head f/2 (16 B meta + 1 B functor + 2 words)
// and the clause ':-'/2 (16 + 2 + 4 words: the head in line, then true).
func TestNativeLedgerByHand(t *testing.T) {
	f, _ := ledgerClauses(3000, 0)
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddClauses("ledger", f); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode SearchMode
		want time.Duration
	}{
		// access + 3000 × 67 B / 2 MB/s (100.5 ms), then 3000 × 50 µs of
		// host matching.
		{ModeSoftware, 25573844 + 100500000 + 150000000},
		// The index, 3000 × 14 B, is a disk scan (21 ms beats FS1's
		// 9.33 ms), then one access and 33.5 µs fetch the one survivor.
		{ModeFS1, 25573844 + 21000000 + 25573844 + 33500},
		// The whole clause file streams; FS2 matching is free.
		{ModeFS2, 25573844 + 100500000},
	} {
		p, err := r.Explain(parse.MustTerm("f(k5, X)"), tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats.Total != tc.want || p.Unified != 1 {
			t.Errorf("%v: EXPLAIN Total %d (%d unified), want %d", tc.mode, p.Stats.Total, p.Unified, tc.want)
		}
	}
}

// TestNativeRetrievalsOverlap: native retrievals lease nothing, so four
// of them, each held 40 ms by a latency rule at the core.retrieve site,
// finish in about the time of one — not one after another behind a
// one-board chassis — with the serial candidates and statistics.
func TestNativeRetrievalsOverlap(t *testing.T) {
	const delay = 40 * time.Millisecond
	const clients = 4
	goal := parse.MustTerm("married_couple(husband3, X)")
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	ref := buildRetriever(t, cfg, 100, 0)
	want, err := ref.Retrieve(goal, ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.AfterFS1 != 1 {
		t.Fatalf("reference has %d FS1 survivors, want 1", want.Stats.AfterFS1)
	}

	cfg.Faults = fault.New(1).Add(fault.Rule{Site: fault.SiteRetrieve, Probability: 1, Delay: delay})
	r := buildRetriever(t, cfg, 100, 0)
	var wg sync.WaitGroup
	got := make([]*Retrieval, clients)
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], errs[c] = r.Retrieve(goal, ModeFS1FS2)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c := range got {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if len(got[c].Candidates) != len(want.Candidates) || got[c].Candidates[0].Addr != want.Candidates[0].Addr {
			t.Errorf("client %d: candidates differ from the serial reference", c)
		}
		st := got[c].Stats
		st.QueryCacheHit = want.Stats.QueryCacheHit // the reference's one retrieval missed
		if st != want.Stats {
			t.Errorf("client %d: stats %+v, serial %+v", c, st, want.Stats)
		}
	}
	if d := r.cfg.Faults.Delayed(); d != clients {
		t.Errorf("%d retrievals were delayed, want %d", d, clients)
	}
	if wall < delay || wall > delay*5/2 {
		t.Errorf("%d retrievals delayed %v each took %v: want them overlapped (under %v)", clients, delay, wall, delay*5/2)
	}
}
