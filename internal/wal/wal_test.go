package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"clare/internal/fault"
	"clare/internal/telemetry"
)

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncPolicy{Always: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Seq: 1, Op: OpAssert, Module: "family", Clause: "parent(a, b)"},
		{Seq: 2, Op: OpRetract, Module: "family", Clause: "parent(a, b)"},
		{Seq: 3, Op: OpAssert, Module: "rel", Clause: "r(X) :- s(X)"},
	}
	for _, r := range want {
		seq, err := l.Append(r.Op, r.Module, r.Clause)
		if err != nil {
			t.Fatal(err)
		}
		if seq != r.Seq {
			t.Fatalf("Append seq = %d, want %d", seq, r.Seq)
		}
	}
	if got := l.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []Record
	if err := l2.Range(1, func(r Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The reopened log continues the sequence.
	seq, err := l2.Append(OpAssert, "family", "parent(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("post-reopen Append seq = %d, want 4", seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := l.Append(OpAssert, "m", fmt.Sprintf("p(c%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want >= 3 with a 128-byte threshold", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	lastSeq := uint64(0)
	err = l2.Range(1, func(r Record) bool {
		if r.Seq != lastSeq+1 {
			t.Fatalf("out-of-order replay: seq %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("replayed %d records across segments, want %d", count, n)
	}
}

func TestRangeFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		if _, err := l.Append(OpAssert, "m", fmt.Sprintf("p(c%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, last, err := l.Suffix(15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 20 {
		t.Fatalf("Suffix last = %d, want 20", last)
	}
	if len(recs) != 6 || recs[0].Seq != 15 || recs[5].Seq != 20 {
		t.Fatalf("Suffix(15) = %d recs [%d..%d], want 6 [15..20]",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
	recs, _, err = l.Suffix(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 || recs[6].Seq != 7 {
		t.Fatalf("Suffix(1, max 7) = %d recs, want 7 ending at seq 7", len(recs))
	}
}

// TestTornTailRecovery is the crash-recovery property test: truncate
// the log at every possible byte offset (simulating a writer killed
// mid-append at that point) and require that recovery yields a clean
// prefix of the committed sequence — never a torn, reordered, or
// corrupted record — and that the recovered log accepts new appends.
func TestTornTailRecovery(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Record, 0, 24)
	for i := 0; i < 24; i++ {
		r := Record{Op: OpAssert, Module: "m", Clause: fmt.Sprintf("p(c%d, v%d)", i, i*i)}
		if i%5 == 4 {
			r.Op = OpRetract
		}
		seq, err := l.Append(r.Op, r.Module, r.Clause)
		if err != nil {
			t.Fatal(err)
		}
		r.Seq = seq
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d (err %v)", len(segs), err)
	}
	tail := segs[len(segs)-1]
	blob, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	offsets := []int{0, 1, len(blob) - 1, len(blob)}
	for i := 0; i < 40; i++ {
		offsets = append(offsets, rng.Intn(len(blob)+1))
	}
	for _, cut := range offsets {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, master, dir)
			if err := os.Truncate(filepath.Join(dir, filepath.Base(tail)), int64(cut)); err != nil {
				t.Fatal(err)
			}
			rl, err := Open(dir, Options{SegmentSize: 256})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer rl.Close()
			var got []Record
			if err := rl.Range(1, func(r Record) bool { got = append(got, r); return true }); err != nil {
				t.Fatal(err)
			}
			// Prefix property: every recovered record matches the committed
			// sequence, in order, from seq 1.
			if len(got) > len(want) {
				t.Fatalf("recovered %d records, committed only %d", len(got), len(want))
			}
			for j, r := range got {
				if r != want[j] {
					t.Fatalf("recovered record %d = %+v, want %+v (not a prefix)", j, r, want[j])
				}
			}
			// The truncated tail can only lose whole records from the cut
			// segment, so at least everything before the tail segment
			// survives.
			tailFirst, err := parseSegName(tail)
			if err != nil {
				t.Fatal(err)
			}
			if minKeep := int(tailFirst) - 1; len(got) < minKeep {
				t.Fatalf("recovered %d records, want at least the %d before the cut segment", len(got), minKeep)
			}
			// The recovered log is appendable and continues the sequence.
			seq, err := rl.Append(OpAssert, "m", "post_recovery(x)")
			if err != nil {
				t.Fatal(err)
			}
			if wantSeq := uint64(len(got)) + 1; seq != wantSeq {
				t.Fatalf("post-recovery Append seq = %d, want %d", seq, wantSeq)
			}
		})
	}
}

// TestCorruptMiddleFrame flips a byte inside an already-synced frame of
// the final segment: recovery truncates there (CRC catches it) and
// keeps the prefix.
func TestCorruptMiddleFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var frameEnd int
	for i := 0; i < 6; i++ {
		if _, err := l.Append(OpAssert, "m", fmt.Sprintf("p(c%d)", i)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			frameEnd = int(l.Stats().Bytes)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	blob[frameEnd+frameHeader+2] ^= 0xff // corrupt frame 4's payload
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	rl, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if got := rl.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after mid-frame corruption = %d, want 3 (prefix before the bad frame)", got)
	}
	if rl.Stats().Truncated == 0 {
		t.Fatal("Truncated = 0, want the discarded tail counted")
	}
}

func TestAppendAtRejectsGaps(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendAt(Record{Seq: 1, Op: OpAssert, Module: "m", Clause: "p(a)"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAt(Record{Seq: 3, Op: OpAssert, Module: "m", Clause: "p(b)"}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap append err = %v, want ErrSeqGap", err)
	}
	if err := l.AppendAt(Record{Seq: 1, Op: OpAssert, Module: "m", Clause: "p(b)"}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("dup append err = %v, want ErrSeqGap", err)
	}
	if err := l.AppendAt(Record{Seq: 2, Op: OpAssert, Module: "m", Clause: "p(b)"}); err != nil {
		t.Fatalf("dense append err = %v", err)
	}
	if got := l.LastSeq(); got != 2 {
		t.Fatalf("LastSeq = %d, want 2", got)
	}
}

func TestAppendBatch(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: FsyncPolicy{Always: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	last, err := l.AppendBatch([]Record{
		{Op: OpAssert, Module: "m", Clause: "p(a)"},
		{Op: OpAssert, Module: "m", Clause: "p(b)"},
		{Op: OpRetract, Module: "m", Clause: "p(a)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("AppendBatch last = %d, want 3", last)
	}
	st := l.Stats()
	if st.Fsyncs != 1 {
		t.Fatalf("Fsyncs = %d, want 1 (one durability unit per batch)", st.Fsyncs)
	}
	if _, err := l.AppendBatch(nil); err == nil {
		t.Fatal("empty batch: want error")
	}
}

func TestFsyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		err  bool
	}{
		{"always", "always", false},
		{"never", "never", false},
		{"100ms", "100ms", false},
		{"0s", "", true},
		{"-1s", "", true},
		{"sometimes", "", true},
	} {
		p, err := ParseFsyncPolicy(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseFsyncPolicy(%q): want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", tc.in, err)
			continue
		}
		if p.String() != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %s, want %s", tc.in, p, tc.want)
		}
	}
}

func TestRecordTextRoundTrip(t *testing.T) {
	for _, r := range []Record{
		{Seq: 1, Op: OpAssert, Module: "family", Clause: "parent(a, b)"},
		{Seq: 99, Op: OpRetract, Module: "rel", Clause: "r(X) :- s(X), t(X)"},
	} {
		got, err := ParseRecordText(r.WireText())
		if err != nil {
			t.Fatalf("round-trip %+v: %v", r, err)
		}
		if got != r {
			t.Fatalf("round-trip %+v = %+v", r, got)
		}
	}
	for _, bad := range []string{"", "1 assert m", "0 assert m p(a)", "x assert m p(a)", "1 frob m p(a)"} {
		if _, err := ParseRecordText(bad); err == nil {
			t.Errorf("ParseRecordText(%q): want error", bad)
		}
	}
}

// TestInjectedFaultsNeverSurface arms wal.append and wal.fsync at
// probability 1 and requires every append to still succeed — injected
// faults are absorbed into counters, never client-visible errors.
func TestInjectedFaultsNeverSurface(t *testing.T) {
	inj := fault.New(1).
		Add(fault.Rule{Site: fault.SiteWALAppend, Probability: 1}).
		Add(fault.Rule{Site: fault.SiteWALFsync, Probability: 1})
	reg := telemetry.NewRegistry()
	l, err := Open(t.TempDir(), Options{Fsync: FsyncPolicy{Always: true}, Faults: inj, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(OpAssert, "m", fmt.Sprintf("p(c%d)", i)); err != nil {
			t.Fatalf("append %d surfaced injected fault: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Appends != 10 {
		t.Fatalf("Appends = %d, want 10", st.Appends)
	}
	if st.Faults < 20 {
		t.Fatalf("Faults = %d, want >= 20 (append + fsync per record)", st.Faults)
	}
	if st.Fsyncs != 0 {
		t.Fatalf("Fsyncs = %d, want 0 (every flush downgraded)", st.Fsyncs)
	}
	if inj.Injected() < 20 {
		t.Fatalf("Injected = %d, want >= 20", inj.Injected())
	}
}

type memSink struct {
	log     *Log
	applyFn func(Record) (uint64, error)
}

func (m *memSink) Bootstrap() (uint64, error) { return m.log.LastSeq(), nil }

func (m *memSink) Apply(r Record) (uint64, error) {
	if m.applyFn != nil {
		return m.applyFn(r)
	}
	if r.Seq <= m.log.LastSeq() {
		return m.log.LastSeq(), nil // dup
	}
	if err := m.log.AppendAt(r); err != nil {
		if errors.Is(err, ErrSeqGap) {
			return m.log.LastSeq(), nil // gap: report where we are
		}
		return 0, err
	}
	return m.log.LastSeq(), nil
}

func TestShipperCatchUp(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for i := 0; i < 30; i++ {
		if _, err := primary.Append(OpAssert, "m", fmt.Sprintf("p(c%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := NewShipper(primary.Suffix, &memSink{log: replica}, ShipperConfig{Batch: 7})
	s.CatchUp()
	if got := replica.LastSeq(); got != 30 {
		t.Fatalf("replica LastSeq = %d, want 30", got)
	}
	if got := s.Shipped(); got != 30 {
		t.Fatalf("Shipped = %d, want 30", got)
	}
	// New appends ship on the next round.
	if _, err := primary.Append(OpAssert, "m", "p(late)"); err != nil {
		t.Fatal(err)
	}
	s.Notify(primary.LastSeq())
	s.CatchUp()
	if got := replica.LastSeq(); got != 31 {
		t.Fatalf("replica LastSeq after notify = %d, want 31", got)
	}
}

func TestShipperFaultSkipsRound(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := primary.Append(OpAssert, "m", "p(a)"); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(3).Add(fault.Rule{Site: fault.SiteWALShip, Nth: 1, Limit: 2})
	s := NewShipper(primary.Suffix, &memSink{log: replica}, ShipperConfig{Faults: inj})
	s.CatchUp() // round 1 faults: nothing ships, lag persists
	s.CatchUp() // round 2 faults too
	if got := replica.LastSeq(); got != 0 {
		t.Fatalf("replica LastSeq during fault = %d, want 0 (rounds skipped)", got)
	}
	if got := s.Faults(); got != 2 {
		t.Fatalf("Faults = %d, want 2 skipped rounds counted", got)
	}
	s.CatchUp() // fault budget exhausted: clean round catches up
	if got := replica.LastSeq(); got != 1 {
		t.Fatalf("replica LastSeq after faults drained = %d, want 1", got)
	}
}

func TestShipperRewindsOnSinkRestart(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replicaDir := t.TempDir()
	replica, err := Open(replicaDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{log: replica}
	var onLagApplied, onLagLast uint64
	s := NewShipper(primary.Suffix, sink, ShipperConfig{
		OnLag: func(applied, last uint64) { onLagApplied, onLagLast = applied, last },
	})
	for i := 0; i < 10; i++ {
		if _, err := primary.Append(OpAssert, "m", fmt.Sprintf("p(c%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.CatchUp()
	if replica.LastSeq() != 10 {
		t.Fatalf("replica at %d, want 10", replica.LastSeq())
	}
	if onLagApplied != 10 || onLagLast != 10 {
		t.Fatalf("OnLag(%d, %d), want (10, 10)", onLagApplied, onLagLast)
	}
	// "Restart" the replica having lost its last 4 records (unsynced
	// tail): the shipper must rewind to its reported position and
	// re-ship, not wedge.
	replica.Close()
	blob, err := os.ReadFile(filepath.Join(replicaDir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var keep int
	for off, n := 0, 0; n < 6; n++ {
		_, sz, err := DecodeFrame(blob[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += sz
		keep = off
	}
	if err := os.WriteFile(filepath.Join(replicaDir, segName(1)), blob[:keep], 0o644); err != nil {
		t.Fatal(err)
	}
	replica, err = Open(replicaDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if replica.LastSeq() != 6 {
		t.Fatalf("restarted replica at %d, want 6", replica.LastSeq())
	}
	sink.log = replica
	// A new primary write flows to the sink; its ack (applied seq 6, not
	// 10) tells the shipper the sink went backwards, and the rewound
	// rounds re-ship the lost suffix.
	if _, err := primary.Append(OpAssert, "m", "p(late)"); err != nil {
		t.Fatal(err)
	}
	s.Notify(primary.LastSeq())
	s.CatchUp()
	if got := replica.LastSeq(); got != 11 {
		t.Fatalf("replica after rewind = %d, want 11", got)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALDecode throws arbitrary bytes at the frame decoder: it must
// never panic, and whenever it does decode a record, re-encoding that
// record must reproduce exactly the bytes consumed (a parsed frame is
// canonical).
func FuzzWALDecode(f *testing.F) {
	f.Add(AppendFrame(nil, Record{Seq: 1, Op: OpAssert, Module: "family", Clause: "parent(a, b)"}))
	f.Add(AppendFrame(nil, Record{Seq: 1 << 40, Op: OpRetract, Module: "m", Clause: "r(X) :- s(X)"}))
	two := AppendFrame(nil, Record{Seq: 7, Op: OpAssert, Module: "m", Clause: "p(a)"})
	f.Add(AppendFrame(two, Record{Seq: 8, Op: OpAssert, Module: "m", Clause: "p(b)"}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decoded size %d out of range (len %d)", n, len(b))
		}
		again := AppendFrame(nil, rec)
		if string(again) != string(b[:n]) {
			t.Fatalf("re-encode mismatch: %x vs %x", again, b[:n])
		}
	})
}
