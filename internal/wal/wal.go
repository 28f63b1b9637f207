// Package wal is the durable replicated write path under the clause
// retrieval engine: a segmented, append-only log of ASSERT/RETRACT
// records with monotonic per-shard sequence numbers. The retrieval
// side of this repository scales reads — parallel native retrievals,
// shards, replica failover — but a mutation only existed in one server's memory. The
// WAL makes a write durable on one node (length-prefixed CRC32 frames,
// configurable fsync policy, torn-tail truncation on recovery) and
// consistent across a shard's replicas (a Shipper pushes the log
// primary→replica; replicas apply records in sequence order, so
// identical logs yield identical stores).
//
// The log is the shard's authority on write order: the primary assigns
// sequence numbers at append time, replicas append the same records at
// the same sequence numbers, and recovery replays the log over the
// booted base store. Prefix semantics are the durability contract — a
// crash mid-append loses at most the torn tail, never the middle of
// the committed sequence, and never reorders it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clare/internal/fault"
	"clare/internal/telemetry"
)

// Fault-injection sites probed by the log. SiteAppend and SiteFsync
// fire inside Append/Sync (absorbed by the caller's retry rung, never
// client-visible); SiteShip fires in the Shipper before a replica push
// (shipping lag grows until the replica trips the staleness bound).
const (
	SiteAppend = fault.SiteWALAppend
	SiteFsync  = fault.SiteWALFsync
	SiteShip   = fault.SiteWALShip
)

// Op is the kind of one logged mutation.
type Op uint8

const (
	// OpAssert appends a clause to its predicate.
	OpAssert Op = 1
	// OpRetract removes the first clause unifying with the record's
	// clause from its predicate.
	OpRetract Op = 2
)

func (o Op) String() string {
	switch o {
	case OpAssert:
		return "assert"
	case OpRetract:
		return "retract"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp maps the wire word back to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "assert":
		return OpAssert, nil
	case "retract":
		return OpRetract, nil
	}
	return 0, fmt.Errorf("wal: unknown op %q", s)
}

// Record is one logged mutation. Seq numbers are monotonic and dense
// (no gaps) per log; the primary assigns them, replicas preserve them.
type Record struct {
	Seq    uint64
	Op     Op
	Module string
	// Clause is the mutation's clause in Edinburgh source form without
	// the final '.' ("p(a, b)" or "p(X) :- q(X)").
	Clause string
}

// WireText renders the record as the space-separated wire form carried
// by the SYNC reply's R lines and the REPL request: "<seq> <op>
// <module> <clause>". Module must not contain spaces (module names come
// from file base names); the clause is the rest of the line.
func (r Record) WireText() string {
	return fmt.Sprintf("%d %s %s %s", r.Seq, r.Op, r.Module, r.Clause)
}

// ParseRecordText parses the wire form rendered by WireText.
func ParseRecordText(s string) (Record, error) {
	var r Record
	fields := strings.SplitN(s, " ", 4)
	if len(fields) != 4 {
		return r, fmt.Errorf("wal: bad record %q: want <seq> <op> <module> <clause>", s)
	}
	seq, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil || seq == 0 {
		return r, fmt.Errorf("wal: bad record seq %q", fields[0])
	}
	op, err := ParseOp(fields[1])
	if err != nil {
		return r, err
	}
	if fields[2] == "" || fields[3] == "" {
		return r, fmt.Errorf("wal: bad record %q: empty module or clause", s)
	}
	r.Seq, r.Op, r.Module, r.Clause = seq, op, fields[2], fields[3]
	return r, nil
}

// Frame format, little-endian:
//
//	uint32 payload length
//	uint32 CRC32 (IEEE) of the payload
//	payload:
//	  uint64 seq
//	  uint8  op
//	  uint16 len(module), module bytes
//	  uint32 len(clause), clause bytes
//
// A frame whose length field exceeds MaxRecordSize, whose payload is
// short, or whose CRC mismatches is torn: recovery truncates the
// segment there.
const (
	frameHeader = 8
	// MaxRecordSize bounds one encoded payload, mirroring the wire
	// protocol's per-line bound.
	MaxRecordSize = 4 * 1024 * 1024
)

// AppendFrame appends the record's encoded frame to dst.
func AppendFrame(dst []byte, r Record) []byte {
	payload := make([]byte, 0, 13+len(r.Module)+len(r.Clause))
	payload = binary.LittleEndian.AppendUint64(payload, r.Seq)
	payload = append(payload, byte(r.Op))
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(r.Module)))
	payload = append(payload, r.Module...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(r.Clause)))
	payload = append(payload, r.Clause...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from the head of b, returning the
// record and the frame's total size. Any malformation — short buffer,
// oversized length, CRC mismatch, truncated payload fields — returns
// an error; the caller treats it as the torn tail.
func DecodeFrame(b []byte) (Record, int, error) {
	var r Record
	if len(b) < frameHeader {
		return r, 0, errShortFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxRecordSize {
		return r, 0, fmt.Errorf("wal: frame length %d exceeds %d", n, MaxRecordSize)
	}
	if uint32(len(b)-frameHeader) < n {
		return r, 0, errShortFrame
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return r, 0, errBadCRC
	}
	if len(payload) < 13 {
		return r, 0, fmt.Errorf("wal: payload too short (%d bytes)", len(payload))
	}
	r.Seq = binary.LittleEndian.Uint64(payload)
	r.Op = Op(payload[8])
	if r.Op != OpAssert && r.Op != OpRetract {
		return r, 0, fmt.Errorf("wal: unknown op byte %d", payload[8])
	}
	ml := int(binary.LittleEndian.Uint16(payload[9:]))
	rest := payload[11:]
	if len(rest) < ml+4 {
		return r, 0, fmt.Errorf("wal: module length %d overruns payload", ml)
	}
	r.Module = string(rest[:ml])
	cl := int(binary.LittleEndian.Uint32(rest[ml:]))
	rest = rest[ml+4:]
	if len(rest) != cl {
		return r, 0, fmt.Errorf("wal: clause length %d vs %d remaining", cl, len(rest))
	}
	r.Clause = string(rest)
	return r, frameHeader + int(n), nil
}

var (
	errShortFrame = errors.New("wal: short frame")
	errBadCRC     = errors.New("wal: frame CRC mismatch")
	// ErrSeqGap rejects an out-of-order explicit-seq append: a replica
	// may only extend its log densely.
	ErrSeqGap = errors.New("wal: sequence gap")
)

// FsyncPolicy decides when appended frames are flushed to stable
// storage.
type FsyncPolicy struct {
	// Always fsyncs after every append (and every batch); the durable
	// default.
	Always bool
	// Interval > 0 fsyncs from a background ticker instead; a crash
	// loses at most one interval of appends (they truncate as the torn
	// tail on recovery).
	Interval time.Duration
	// Neither set ("never"): the OS decides. Recovery semantics are
	// unchanged — the log is still a prefix — but the prefix may be
	// arbitrarily short after a power loss.
}

// ParseFsyncPolicy parses the -wal-fsync flag form: "always", "never",
// or a ticker interval such as "100ms".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncPolicy{Always: true}, nil
	case "never":
		return FsyncPolicy{}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return FsyncPolicy{}, fmt.Errorf("wal: fsync policy %q: want always, never, or a positive interval", s)
	}
	return FsyncPolicy{Interval: d}, nil
}

func (p FsyncPolicy) String() string {
	switch {
	case p.Always:
		return "always"
	case p.Interval > 0:
		return p.Interval.String()
	}
	return "never"
}

// Options parameterise Open.
type Options struct {
	// Fsync is the flush policy (zero value = never).
	Fsync FsyncPolicy
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (0 = DefaultSegmentSize).
	SegmentSize int64
	// Faults, when non-nil, probes wal.append and wal.fsync.
	Faults *fault.Injector
	// Metrics, when non-nil, receives the clare_wal_* series.
	Metrics *telemetry.Registry
}

// DefaultSegmentSize is the rotation threshold when Options leaves it 0.
const DefaultSegmentSize = 16 << 20

// LogStats is a point-in-time view of the log for STATS keys.
type LogStats struct {
	FirstSeq  uint64
	LastSeq   uint64
	Segments  int
	Appends   int64
	Fsyncs    int64
	Bytes     int64
	Truncated int64 // torn-tail bytes discarded at Open
	Faults    int64 // injected wal.append/wal.fsync faults absorbed
}

// Log is one shard replica's write-ahead log: an ordered set of segment
// files under a directory, named wal-<first-seq>.log by the 16-hex-digit
// sequence number of their first record. All methods are safe for
// concurrent use; Range readers run lock-free against immutable prefix
// bytes.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment
	segs     []segment
	size     int64  // active segment size
	nextSeq  uint64 // seq the next append receives
	firstSeq uint64 // seq of the oldest retained record (0 = empty log)
	dirty    bool   // appended since last fsync

	appends   int64
	fsyncs    int64
	bytes     int64
	truncated int64
	faults    int64

	ticker *time.Ticker
	stop   chan struct{}
	done   chan struct{}

	met *logMetrics
}

// segment is one on-disk file: its path and the seq of its first record.
type segment struct {
	path  string
	first uint64
}

type logMetrics struct {
	appends  *telemetry.Counter
	fsyncs   *telemetry.Counter
	bytes    *telemetry.Counter
	segments *telemetry.Gauge
	faults   *telemetry.Counter
}

func newLogMetrics(reg *telemetry.Registry) *logMetrics {
	return &logMetrics{
		appends:  reg.Counter("clare_wal_appends_total", "records appended to the write-ahead log", nil),
		fsyncs:   reg.Counter("clare_wal_fsyncs_total", "write-ahead log fsync calls", nil),
		bytes:    reg.Counter("clare_wal_bytes_total", "bytes appended to the write-ahead log", nil),
		segments: reg.Gauge("clare_wal_segments", "write-ahead log segment files", nil),
		faults:   reg.Counter("clare_wal_faults_total", "injected wal faults absorbed by the log", nil),
	}
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }

// Open opens (creating if needed) the log under dir, recovering the
// committed prefix: segments replay in order, and the last segment is
// truncated at its first torn frame — a partial append left by a crash
// is discarded, never surfaced. A torn or out-of-sequence frame in a
// non-final segment is unrecoverable corruption and errors out.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1, met: newLogMetrics(opts.Metrics)}

	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // 16-hex-digit first-seq names sort numerically
	for i, path := range names {
		first, err := parseSegName(path)
		if err != nil {
			return nil, err
		}
		last := i == len(names)-1
		if err := l.recoverSegment(path, first, last); err != nil {
			return nil, err
		}
	}
	if len(l.segs) == 0 {
		if err := l.openSegment(l.nextSeq); err != nil {
			return nil, err
		}
	} else {
		// Reopen the tail segment for appends.
		tail := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.size = f, st.Size()
	}
	l.met.segments.Set(float64(len(l.segs)))
	if opts.Fsync.Interval > 0 {
		l.ticker = time.NewTicker(opts.Fsync.Interval)
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.fsyncLoop()
	}
	return l, nil
}

func parseSegName(path string) (uint64, error) {
	base := filepath.Base(path)
	hexa := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
	first, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: bad segment name %s", base)
	}
	return first, nil
}

// recoverSegment replays one segment at Open. For the final segment a
// torn tail (bad frame, or a seq that does not continue the sequence)
// is truncated in place; anywhere else it is corruption.
func (l *Log) recoverSegment(path string, first uint64, isTail bool) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(l.segs) == 0 {
		l.nextSeq = first
	} else if l.nextSeq != first {
		return fmt.Errorf("wal: segment %s starts at %d, want %d", filepath.Base(path), first, l.nextSeq)
	}
	good := 0
	for off := 0; off < len(blob); {
		rec, n, err := DecodeFrame(blob[off:])
		if err != nil || rec.Seq != l.nextSeq {
			if !isTail {
				if err == nil {
					err = fmt.Errorf("wal: seq %d, want %d", rec.Seq, l.nextSeq)
				}
				return fmt.Errorf("wal: segment %s corrupt at offset %d: %w", filepath.Base(path), off, err)
			}
			// Torn tail: everything from here on is a partial append.
			l.truncated += int64(len(blob) - off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return err
			}
			blob = blob[:off]
			break
		}
		if l.firstSeq == 0 {
			l.firstSeq = rec.Seq
		}
		l.nextSeq = rec.Seq + 1
		off += n
		good++
	}
	if good == 0 && isTail && len(l.segs) > 0 {
		// An empty (fully torn) tail segment: drop the file entirely so
		// the previous segment becomes the append tail.
		return os.Remove(path)
	}
	l.segs = append(l.segs, segment{path: path, first: first})
	l.bytes += int64(len(blob))
	return nil
}

// openSegment starts a fresh segment whose first record will be seq.
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if l.f != nil {
		l.f.Sync() //nolint:errcheck // rotation flush is best-effort; policy fsync follows
		l.f.Close()
	}
	l.f, l.size = f, 0
	l.segs = append(l.segs, segment{path: path, first: seq})
	l.met.segments.Set(float64(len(l.segs)))
	return nil
}

// Append assigns the next sequence number to the mutation and appends
// its frame, fsyncing per policy. Injected wal.append faults are
// absorbed by one probe-free retry (the final rung cannot fault —
// mirroring the retrieval ladder, injected faults must never surface
// as client errors); real I/O errors return.
func (l *Log) Append(op Op, module, clause string) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{Seq: l.nextSeq, Op: op, Module: module, Clause: clause}
	if err := l.appendLocked(rec, true); err != nil {
		return 0, err
	}
	return rec.Seq, l.syncPolicyLocked()
}

// AppendBatch appends a transaction's records as one durability unit:
// every record gets consecutive sequence numbers and the policy fsync
// happens once after the last frame. Returns the seq of the last
// record.
func (l *Log) AppendBatch(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range recs {
		recs[i].Seq = l.nextSeq
		if err := l.appendLocked(recs[i], i == 0); err != nil {
			return 0, err
		}
	}
	return l.nextSeq - 1, l.syncPolicyLocked()
}

// AppendAt appends a record carrying an explicit sequence number — the
// replica path, where the primary already assigned it. The record must
// exactly extend the log (rec.Seq == LastSeq+1); anything else returns
// ErrSeqGap so the shipper rewinds instead of corrupting the order.
func (l *Log) AppendAt(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Seq != l.nextSeq {
		return fmt.Errorf("%w: appending seq %d, log at %d", ErrSeqGap, rec.Seq, l.nextSeq)
	}
	if err := l.appendLocked(rec, true); err != nil {
		return err
	}
	return l.syncPolicyLocked()
}

// appendLocked writes one frame, rotating first when the active segment
// is over the threshold. probe arms the wal.append fault site (batches
// probe once).
func (l *Log) appendLocked(rec Record, probe bool) error {
	if probe {
		if err := l.opts.Faults.Probe(SiteAppend, l.dir); err != nil {
			// Absorbed: count it and fall through to the probe-free write.
			l.faults++
			l.met.faults.Inc()
		}
	}
	if l.size >= l.opts.SegmentSize {
		if err := l.openSegment(rec.Seq); err != nil {
			return err
		}
	}
	frame := AppendFrame(nil, rec)
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	if l.firstSeq == 0 {
		l.firstSeq = rec.Seq
	}
	l.nextSeq = rec.Seq + 1
	l.size += int64(len(frame))
	l.bytes += int64(len(frame))
	l.dirty = true
	l.appends++
	l.met.appends.Inc()
	l.met.bytes.Add(int64(len(frame)))
	return nil
}

// syncPolicyLocked applies the fsync policy after an append. An
// injected wal.fsync fault downgrades this one flush to the OS's
// writeback (counted, never an error — durability degrades, the write
// path keeps serving); a real fsync error returns.
func (l *Log) syncPolicyLocked() error {
	if !l.opts.Fsync.Always {
		return nil
	}
	if err := l.opts.Faults.Probe(SiteFsync, l.dir); err != nil {
		l.faults++
		l.met.faults.Inc()
		return nil
	}
	return l.fsyncLocked()
}

func (l *Log) fsyncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.fsyncs++
	l.met.fsyncs.Inc()
	return nil
}

// Sync flushes appended frames to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncLocked()
}

func (l *Log) fsyncLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.ticker.C:
			l.Sync() //nolint:errcheck // periodic flush: the next tick retries
		case <-l.stop:
			return
		}
	}
}

// LastSeq returns the newest appended sequence number (0 = empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FirstSeq returns the oldest retained sequence number (0 = empty log).
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstSeq
}

// Stats returns a point-in-time view of the log.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		FirstSeq:  l.firstSeq,
		LastSeq:   l.nextSeq - 1,
		Segments:  len(l.segs),
		Appends:   l.appends,
		Fsyncs:    l.fsyncs,
		Bytes:     l.bytes,
		Truncated: l.truncated,
		Faults:    l.faults,
	}
}

// Range calls fn for every record with from <= seq, in sequence order,
// stopping early when fn returns false. It reads committed bytes only
// (the record set is snapshotted under the mutex, then file reads run
// without it — appends never rewrite a committed prefix, so concurrent
// writers are safe).
func (l *Log) Range(from uint64, fn func(Record) bool) error {
	l.mu.Lock()
	last := l.nextSeq - 1
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if from == 0 {
		from = 1
	}
	for i, seg := range segs {
		// Skip whole segments below the range start.
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue
		}
		blob, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		for off := 0; off < len(blob); {
			rec, n, err := DecodeFrame(blob[off:])
			if err != nil {
				// The tail may hold a frame newer than our snapshot or a
				// partial concurrent append; the snapshot bound below
				// guarantees we never report it.
				break
			}
			off += n
			if rec.Seq > last {
				return nil
			}
			if rec.Seq < from {
				continue
			}
			if !fn(rec) {
				return nil
			}
		}
	}
	return nil
}

// Suffix collects up to max records with seq >= from (max <= 0 means
// unlimited), plus the log's current last seq — the SYNC reply shape.
func (l *Log) Suffix(from uint64, max int) ([]Record, uint64, error) {
	var recs []Record
	err := l.Range(from, func(r Record) bool {
		recs = append(recs, r)
		return max <= 0 || len(recs) < max
	})
	return recs, l.LastSeq(), err
}

// Close flushes and closes the log. Further appends error.
func (l *Log) Close() error {
	if l.ticker != nil {
		l.ticker.Stop()
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.fsyncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

var _ io.Closer = (*Log)(nil)
