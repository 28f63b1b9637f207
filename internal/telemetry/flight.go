package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// FlightRecord is one retrieval's black-box entry: the compact facts a
// post-mortem needs to reconstruct what the engine decided and how the
// candidate funnel behaved, without the weight of a full trace.
type FlightRecord struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts_unix_nano"`
	TraceID uint64 `json:"trace_id,omitempty"`
	// CallerTraceID is the trace ID the caller sent with the request (a
	// router's own trace of the routed call), so a backend record joins
	// the caller's record without either process's trace ring.
	CallerTraceID uint64 `json:"caller_trace_id,omitempty"`
	Predicate     string `json:"predicate"`
	Mode          string `json:"mode"`
	Plan          string `json:"plan,omitempty"` // the router's routing decision: shard=N or fanout
	Total         int64  `json:"candidates_total"`
	AfterFS1      int64  `json:"after_fs1"`
	AfterFS2      int64  `json:"after_fs2"`
	WallNS        int64  `json:"wall_ns"`
	Degraded      string `json:"degraded,omitempty"`
	Faults        int64  `json:"faults,omitempty"`
	Retries       int64  `json:"retries,omitempty"`
	// Err is the error a failed retrieval returned ("" when it succeeded).
	Err string `json:"err,omitempty"`
}

// FlightRecorder is a fixed-size ring of FlightRecords written
// lock-freely on every retrieval. A slot is an atomic pointer, so a
// writer publishes a fully-built record with one store and a concurrent
// dump never observes a half-written entry; the global sequence counter
// both orders records and picks the slot, so the ring always holds the
// most recent len(ring) retrievals. All methods are nil-receiver safe:
// a nil recorder records nothing and dumps empty, so call sites need no
// "is the recorder on" branches.
type FlightRecorder struct {
	ring []atomic.Pointer[FlightRecord]
	seq  atomic.Uint64
}

// DefaultFlightSize is the ring size daemons use when no -flight flag
// overrides it: enough history to cover a burst, small enough that a
// snapshot is a quick read.
const DefaultFlightSize = 1024

// NewFlightRecorder builds a ring of n slots (DefaultFlightSize when
// n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSize
	}
	return &FlightRecorder{ring: make([]atomic.Pointer[FlightRecord], n)}
}

// Record stamps rec with the next sequence number and publishes it into
// its ring slot. The caller must not reuse or mutate rec afterwards.
func (f *FlightRecorder) Record(rec *FlightRecord) {
	if f == nil || rec == nil {
		return
	}
	seq := f.seq.Add(1)
	rec.Seq = seq
	f.ring[seq%uint64(len(f.ring))].Store(rec)
}

// Size reports the ring capacity; 0 on a nil recorder.
func (f *FlightRecorder) Size() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Recorded reports how many records have ever been written (not how
// many the ring still holds).
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Snapshot collects up to n of the most recent records, oldest first.
// n <= 0 means the whole ring. Concurrent writers may overwrite slots
// mid-collection; the sort by sequence number keeps whatever was read
// consistent and ordered.
func (f *FlightRecorder) Snapshot(n int) []*FlightRecord {
	if f == nil {
		return nil
	}
	recs := make([]*FlightRecord, 0, len(f.ring))
	for i := range f.ring {
		if r := f.ring[i].Load(); r != nil {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// TopEntry is one predicate's row of the /top view over the ring.
type TopEntry struct {
	Key   string        `json:"key"`
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Top groups the records the ring holds by predicate and returns up to n
// groups (n <= 0 means all), hottest first: by summed wall time, ties by
// key. Count and Sum cover the ring — the newest Size() records over all
// predicates, failed retrievals included — not the process lifetime; the
// quantiles are nearest-rank over the same records. A nil recorder
// returns an empty list.
func (f *FlightRecorder) Top(n int) []TopEntry {
	walls := make(map[string][]time.Duration)
	for _, rec := range f.Snapshot(0) {
		walls[rec.Predicate] = append(walls[rec.Predicate], time.Duration(rec.WallNS))
	}
	out := make([]TopEntry, 0, len(walls))
	for k, ws := range walls {
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		e := TopEntry{
			Key:   k,
			Count: uint64(len(ws)),
			P50:   quantile(ws, 0.50),
			P90:   quantile(ws, 0.90),
			P99:   quantile(ws, 0.99),
			Max:   ws[len(ws)-1],
		}
		for _, w := range ws {
			e.Sum += w
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sum != out[j].Sum {
			return out[i].Sum > out[j].Sum
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// quantile reads the nearest-rank q-quantile from a non-empty ascending
// slice: rank ceil(q·N), so the P50 of 1..100 is the 50th sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// WriteJSONL dumps up to n records (oldest first) as one JSON object
// per line — the /flight admin endpoint and FLIGHT wire verb body.
func (f *FlightRecorder) WriteJSONL(w io.Writer, n int) error {
	for _, rec := range f.Snapshot(n) {
		blob, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", blob); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotToFile writes the whole ring as JSONL to path atomically
// (temp file + rename), creating parent directories as needed. Used on
// SIGTERM and panic so the black box survives the process.
func (f *FlightRecorder) SnapshotToFile(path string) error {
	if f == nil || path == "" {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".flight-*")
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(tmp, 0); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
