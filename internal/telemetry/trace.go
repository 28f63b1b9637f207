package telemetry

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one stage of a retrieval (encode, FS1 scan, disk fetch, FS2
// match, host matching) or one hop of a routed call (shard, net). Spans
// form a tree within their trace via Parent (span IDs start at 1; the
// root's Parent is 0). Wall is the host time the stage took; simulated
// time is not a span's: it lives in core.StageStats and EXPLAIN.
type Span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Start  time.Time         `json:"start"`
	Wall   time.Duration     `json:"wall_ns"`
}

// SetAttr attaches a key/value to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}

// End stamps the span's wall duration from its start time. Safe to call
// once per span; later calls overwrite (longest measurement wins the
// final write).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Wall = time.Since(s.Start)
}

// TraceContext names a position in a (possibly remote) trace: the trace
// ID and the span under which further work should attach. It is what the
// CRS wire protocol carries in the RETRIEVE trace header, so a backend's
// span tree can be stitched back into the caller's.
type TraceContext struct {
	TraceID    uint64
	ParentSpan int
}

// String renders the wire form, "<traceid>:<parentspan>".
func (tc TraceContext) String() string {
	return fmt.Sprintf("%d:%d", tc.TraceID, tc.ParentSpan)
}

// ParseTraceContext parses the wire form produced by String.
func ParseTraceContext(s string) (TraceContext, error) {
	idText, spanText, ok := strings.Cut(s, ":")
	if !ok {
		return TraceContext{}, fmt.Errorf("telemetry: bad trace context %q", s)
	}
	id, err := strconv.ParseUint(idText, 10, 64)
	if err != nil {
		return TraceContext{}, fmt.Errorf("telemetry: bad trace id in %q", s)
	}
	parent, err := strconv.Atoi(spanText)
	if err != nil || parent < 0 {
		return TraceContext{}, fmt.Errorf("telemetry: bad parent span in %q", s)
	}
	return TraceContext{TraceID: id, ParentSpan: parent}, nil
}

// Trace is one retrieval's span tree. Span creation and grafting are
// safe for concurrent use (scatter-gather fan-out builds one trace from
// several worker goroutines); a trace becomes immutable once handed to
// Tracer.Finish, so exports need no further locking.
type Trace struct {
	// TraceID is unique per tracer.
	TraceID uint64 `json:"trace"`
	// Name is the root operation, e.g. "retrieve".
	Name string `json:"name"`
	// Begin is when the trace opened.
	Begin time.Time `json:"begin"`
	// Remote, when non-nil, is the caller's trace context this trace was
	// started under: the caller's trace ID and the caller-side span the
	// root logically hangs from. Cross-process stitching keys on it.
	Remote *TraceContext `json:"remote,omitempty"`
	// Spans holds the tree in creation order; Spans[0] is the root.
	Spans []*Span `json:"spans"`

	mu sync.Mutex
}

// Span opens a child span under parent (nil parent attaches to the root;
// for the first span of the trace it creates the root itself). Nil-safe:
// a nil trace returns a nil span, and every Span method accepts a nil
// receiver, so untraced runs pay only a pointer test. Safe for
// concurrent callers.
func (t *Trace) Span(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	return t.Record(parent, name, time.Now(), 0)
}

// Record adds a finished span under parent — a stage the caller timed
// itself and reports afterwards, where Span/End time a live one. Parent
// resolution, nil-safety and concurrency are Span's.
func (t *Trace) Record(parent *Span, name string, start time.Time, wall time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	pid := 0
	if parent != nil {
		pid = parent.ID
	} else if len(t.Spans) > 0 {
		pid = t.Spans[0].ID
	}
	s := &Span{ID: len(t.Spans) + 1, Parent: pid, Name: name, Start: start, Wall: wall}
	t.Spans = append(t.Spans, s)
	t.mu.Unlock()
	return s
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.Spans) == 0 {
		return nil
	}
	return t.Spans[0]
}

// WireSpan is the compact span form carried over the CRS wire when a
// reply appends its trace subtree. Field names are shortened to keep the
// serialized tree small; durations travel as nanoseconds.
type WireSpan struct {
	ID     int               `json:"i"`
	Parent int               `json:"p"`
	Name   string            `json:"n"`
	Attrs  map[string]string `json:"a,omitempty"`
	Start  time.Time         `json:"t"`
	Wall   int64             `json:"w"`
}

// Wire snapshots the trace's spans in creation order for wire
// serialization.
func (t *Trace) Wire() []WireSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]WireSpan, len(t.Spans))
	for i, s := range t.Spans {
		out[i] = WireSpan{ID: s.ID, Parent: s.Parent, Name: s.Name, Attrs: s.Attrs,
			Start: s.Start, Wall: int64(s.Wall)}
	}
	return out
}

// EncodeWireSpans serializes a span subtree into a single opaque token
// (base64 of compact JSON) safe to embed in one wire-protocol line.
func EncodeWireSpans(spans []WireSpan) string {
	if len(spans) == 0 {
		return ""
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return ""
	}
	return base64.RawStdEncoding.EncodeToString(blob)
}

// DecodeWireSpans reverses EncodeWireSpans. An empty token decodes to an
// empty tree.
func DecodeWireSpans(tok string) ([]WireSpan, error) {
	if tok == "" {
		return nil, nil
	}
	blob, err := base64.RawStdEncoding.DecodeString(tok)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad wire trace token: %w", err)
	}
	var spans []WireSpan
	if err := json.Unmarshal(blob, &spans); err != nil {
		return nil, fmt.Errorf("telemetry: bad wire trace payload: %w", err)
	}
	return spans, nil
}

// Graft splices a remote span subtree under parent (nil parent attaches
// to the root): remote IDs are remapped into this trace's ID space with
// parent links preserved, and each grafted span records its origin ID in
// attr "remote_span". Safe for concurrent callers. Remote spans whose
// parent is outside the subtree (the remote root, Parent 0 or unknown)
// hang directly from parent.
func (t *Trace) Graft(parent *Span, sub []WireSpan) {
	if t == nil || len(sub) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := 0
	if parent != nil {
		base = parent.ID
	} else if len(t.Spans) > 0 {
		base = t.Spans[0].ID
	}
	idMap := make(map[int]int, len(sub))
	for _, ws := range sub {
		id := len(t.Spans) + 1
		idMap[ws.ID] = id
		pid := base
		if mapped, ok := idMap[ws.Parent]; ok && ws.Parent != ws.ID {
			pid = mapped
		}
		attrs := make(map[string]string, len(ws.Attrs)+1)
		for k, v := range ws.Attrs {
			attrs[k] = v
		}
		attrs["remote_span"] = strconv.Itoa(ws.ID)
		t.Spans = append(t.Spans, &Span{
			ID: id, Parent: pid, Name: ws.Name, Attrs: attrs,
			Start: ws.Start, Wall: time.Duration(ws.Wall),
		})
	}
}

// Tracer records finished traces in a ring buffer (newest evicts
// oldest), the store behind crsd's /trace endpoint (crsd -trace-buf
// sets its size).
type Tracer struct {
	mu     sync.Mutex
	ring   []*Trace
	next   int
	filled bool
	nextID atomic.Uint64
}

// DefaultTraceRing is the ring capacity when NewTracer is given n <= 0.
const DefaultTraceRing = 64

// NewTracer returns a tracer retaining the last n traces.
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTraceRing
	}
	return &Tracer{ring: make([]*Trace, n)}
}

// Start opens a trace whose root span carries name. Nil-safe: a nil
// tracer returns a nil trace.
func (tr *Tracer) Start(name string) *Trace {
	return tr.StartAt(name, nil, time.Now())
}

// StartAt is Start for an operation that began at begin, joining a
// caller's trace when tc is non-nil: the new trace records tc so its
// span tree can be stitched back under the caller's parent span. The
// caller read the clock itself and derives the tree afterwards, so the
// trace and its root span are stamped with that instant.
func (tr *Tracer) StartAt(name string, tc *TraceContext, begin time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{TraceID: tr.nextID.Add(1), Name: name, Begin: begin}
	if tc != nil {
		ctx := *tc
		t.Remote = &ctx
	}
	t.Record(nil, name, begin, 0) // root
	return t
}

// Finish records a completed trace into the ring. Nil-safe on both sides.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	tr.mu.Lock()
	tr.ring[tr.next] = t
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next = 0
		tr.filled = true
	}
	tr.mu.Unlock()
}

// Last returns up to n of the most recent traces, oldest first. n <= 0
// means the whole ring.
func (tr *Tracer) Last(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all []*Trace
	if tr.filled {
		all = append(all, tr.ring[tr.next:]...)
	}
	all = append(all, tr.ring[:tr.next]...)
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// WriteJSON exports the last n traces as JSON lines, one complete trace
// (with its span tree) per line — grep-able, tail-able, and trivially
// parseable.
func (tr *Tracer) WriteJSON(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, t := range tr.Last(n) {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return nil
}
