package core

import (
	"fmt"
	"hash/fnv"
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

// perChunkLedger is the fs1+fs2 ledger as the native engine produced it
// while it still swept the index one pipeline chunk per call: scan a
// chunk, charge its stream, charge the fetch of its survivors, next chunk.
// The one-sweep path must derive exactly this from the survivors'
// positions.
func perChunkLedger(r *Retriever, pred *Predicate, goal term.Term) (StageStats, error) {
	var st StageStats
	qd, err := r.ienc.EncodeQuery(goal)
	if err != nil {
		return st, err
	}
	col := pred.File.Index().Columnar()
	all := pred.File.All()
	n := col.Len()
	chunk, _ := r.streamChunks(n)
	m := r.cfg.Disk
	var buf scw.ScanBuf
	var scans, fetches []time.Duration
	for lo := 0; lo < n; lo += chunk {
		col.ScanRangeInto(qd, lo, lo+chunk, &buf)
		st.IndexBytes += buf.BytesScanned
		sTime := scw.ScanTime(buf.BytesScanned)
		if dt := m.TransferTime(buf.BytesScanned); dt > sTime {
			sTime = dt
		}
		st.FS1Scan += sTime
		st.AfterFS1 += len(buf.Pos)
		st.MaskedHits += buf.MaskedHits
		scans = append(scans, sTime)
		fetchBytes := 0
		for _, p := range buf.Pos {
			fetchBytes += all[p].SizeBytes
		}
		st.ClauseBytes += fetchBytes
		fetch := m.FetchRunTime(len(buf.Pos), fetchBytes)
		st.DiskFetch += fetch
		fetches = append(fetches, fetch)
	}
	st.FS1Scan += m.AccessTime()
	st.Chunks = len(scans)
	st.Total = pipelineTime(m.AccessTime(), scans, fetches)
	return st, nil
}

// TestNativeLedgerDerived: over chunk sizes from one entry to more than
// the file, and goals whose survivors fall on a chunk's first entry, its
// last, in no chunk at all and in masked blocks, the native fs1+fs2
// ledger — derived after one sweep from where the survivors lie — is the
// per-chunk loop's, field for field, and the sim engine's except for the
// FS2-match term. (f's records are all one size, so on it the sim
// engine's truncated-average fetch is exact, and a chunk's fetch always
// outlasts its match, so DiskFetch and Total agree too; g's records vary,
// and there the two engines' documented fetch terms differ.) A few Totals
// are pinned as the commit before the one-sweep change printed them.
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
		var want, simF, nativeF disk.Stats
		for _, gl := range goals {
			name := "chunk=" + tc.name + "/" + gl.name
			if gl.name == "g-masked" {
				simF, nativeF = sim.DiskStats(), native.DiskStats()
			}
			goal := parse.MustTerm(gl.src)
			diffRetrieve(t, sim, native, goal, ModeFS1FS2)
			nrt, err := native.Retrieve(goal, ModeFS1FS2)
			if err != nil {
				t.Fatal(err)
			}
			srt, err := sim.Retrieve(goal, ModeFS1FS2)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := perChunkLedger(native, nrt.pred, goal)
			if err != nil {
				t.Fatal(err)
			}
			ns, ss := nrt.Stats, srt.Stats
			type ledger struct {
				IndexBytes, ClauseBytes, Chunks, AfterFS1, MaskedHits int
				FS1Scan, DiskFetch, Total                             time.Duration
			}
			of := func(st StageStats) ledger {
				return ledger{st.IndexBytes, st.ClauseBytes, st.Chunks, st.AfterFS1, st.MaskedHits, st.FS1Scan, st.DiskFetch, st.Total}
			}
			if got := of(ns); got != of(ref) {
				t.Errorf("%s: native ledger %+v, per-chunk loop %+v", name, got, of(ref))
			}
			if gl.name == "g-masked" {
				ss.DiskFetch, ss.Total = ns.DiskFetch, ns.Total
			}
			if got := of(ns); got != of(ss) {
				t.Errorf("%s: native ledger %+v, sim engine %+v", name, got, of(ss))
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
			// Two retrievals ran: each positioned once, streamed the whole
			// index and fetched its survivors.
			for i := 0; i < 2; i++ {
				want.Add(disk.Stats{
					BytesRead: int64(ref.IndexBytes + ref.ClauseBytes),
					Accesses:  1 + ref.AfterFS1,
					Elapsed:   ref.FS1Scan + ref.DiskFetch,
				})
			}
		}
		if got := native.DiskStats(); got != want {
			t.Errorf("chunk=%s: native DiskStats %+v, want %+v", tc.name, got, want)
		}
		if nativeF != simF {
			t.Errorf("chunk=%s: over f, native DiskStats %+v, sim %+v", tc.name, nativeF, simF)
		}
	}
	if seen != len(pinned) {
		t.Errorf("%d of %d pinned totals were checked", seen, len(pinned))
	}
}

// TestNativeFaultSequence: a seeded drive-fault schedule fires on the same
// probes as before the native engine stopped leasing a chassis — the drive
// sites are probed under the same names and key, in the same order and
// number per retrieval — so 200 serial retrievals walk the ladder the same
// way. The per-retrieval (Faults, Retries, Degraded) sequence, the injected
// count and the drive totals are pinned as the commit before printed them.
func TestNativeFaultSequence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.StreamChunkEntries = 64
	cfg.RetryBackoff = time.Microsecond
	cfg.Faults = fault.New(19890528).
		Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 0.05}).
		Add(fault.Rule{Site: fault.SiteDiskRead, Probability: 0.10})
	r := buildRetriever(t, cfg, 500, 5)
	h := fnv.New64a()
	var faults, retries, fs2, host int
	for i := 0; i < 200; i++ {
		goal := parse.MustTerm(fmt.Sprintf("married_couple(husband%d, X)", (i*37)%500))
		rt, err := r.Retrieve(goal, modes()[i%4])
		if err != nil {
			t.Fatal(err)
		}
		if n, _, err := rt.Evaluate(); err != nil || n != 1 {
			t.Fatalf("retrieval %d: %d true unifiers (%v), degraded %q", i, n, err, rt.Stats.Degraded)
		}
		fmt.Fprintf(h, "%d/%d/%s,", rt.Stats.Faults, rt.Stats.Retries, rt.Stats.Degraded)
		faults += rt.Stats.Faults
		retries += rt.Stats.Retries
		switch rt.Stats.Degraded {
		case "fs2":
			fs2++
		case "host":
			host++
		}
	}
	got := fmt.Sprintf("faults=%d retries=%d fs2=%d host=%d injected=%d seq=%016x disk=%+v",
		faults, retries, fs2, host, r.cfg.Faults.Injected(), h.Sum64(), r.DiskStats())
	const want = "faults=46 retries=46 fs2=28 host=0 injected=46 seq=e90c640a4e7595b5 disk={BytesRead:5721256 Accesses:377 Elapsed:12.118359528s Faults:46}"
	if got != want {
		t.Errorf("fault schedule moved:\n got %s\nwant %s", got, want)
	}
}

// TestNativeRetrievalsOverlap: native retrievals lease nothing, so four
// of them, each held 40 ms at its one clause-file read, finish in about
// the time of one — not one after another behind a one-board chassis —
// with the serial candidates, and the drive totals come out as four times
// one retrieval's.
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
	one := ref.DiskStats()

	cfg.Faults = fault.New(1).Add(fault.Rule{Site: fault.SiteDiskRead, Probability: 1, Delay: delay})
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
		t.Errorf("%d reads were delayed, want %d", d, clients)
	}
	if wall < delay || wall > delay*5/2 {
		t.Errorf("%d retrievals delayed %v each took %v: want them overlapped (under %v)", clients, delay, wall, delay*5/2)
	}
	var total disk.Stats
	for c := 0; c < clients; c++ {
		total.Add(one)
	}
	if ds := r.DiskStats(); ds != total {
		t.Errorf("DiskStats = %+v, want %d × one retrieval = %+v", ds, clients, total)
	}
}
