package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"clare/internal/telemetry"
	"clare/internal/wal"
)

// replyBuffer is the reply writer's buffer: a reply up to this size
// reaches the connection in one write, a longer one spills in
// buffer-sized writes.
const replyBuffer = 4096

// Table maps each verb a server serves to its handler over the server's
// per-connection state C. The registration methods name the argument
// shapes the protocol has: each parses the request's arguments once and
// hands the handler typed values, answering a malformed request itself.
type Table[C any] map[string]func(c C, r *Reply, args string)

// Plain registers a verb without arguments (HELLO, STATS, BEGIN, …).
func (t Table[C]) Plain(verb string, h func(C, *Reply)) {
	t[verb] = func(c C, r *Reply, _ string) { h(c, r) }
}

// Count registers a verb taking an optional non-negative count; absent
// means 0 ("everything").
func (t Table[C]) Count(verb string, h func(C, *Reply, int)) {
	t[verb] = func(c C, r *Reply, args string) {
		n := 0
		if args = strings.TrimSpace(args); args != "" {
			var err error
			if n, err = strconv.Atoi(args); err != nil || n < 0 {
				r.failf("usage: %s [<n>]", verb)
				return
			}
		}
		h(c, r, n)
	}
}

// Query is a parsed RETRIEVE or EXPLAIN request.
type Query struct {
	// Mode is the search-mode word, for the handler to judge.
	Mode string
	// Goal is the goal's source without the terminating '.'.
	Goal string
	// Trace is the caller's trace context, nil when the request carried
	// no header; a traced reply ends with a TRACE line.
	Trace *telemetry.TraceContext
}

// Query registers a "<mode> <goal>[ trace=…]" verb.
func (t Table[C]) Query(verb string, h func(C, *Reply, Query)) {
	t[verb] = func(c C, r *Reply, args string) {
		mode, goal, ok := strings.Cut(args, " ")
		if !ok {
			r.failf("usage: %s <mode> <goal>", verb)
			return
		}
		goal, tc := cutTraceHeader(goal)
		h(c, r, Query{Mode: mode, Goal: strings.TrimSuffix(goal, "."), Trace: tc})
	}
}

// Clause registers a verb whose argument is one clause; the handler
// receives its source without the terminating '.'.
func (t Table[C]) Clause(verb string, h func(C, *Reply, string)) {
	t[verb] = func(c C, r *Reply, args string) { h(c, r, strings.TrimSuffix(args, ".")) }
}

// Write registers an "assert|retract <clause>" verb.
func (t Table[C]) Write(verb string, h func(C, *Reply, wal.Op, string)) {
	t[verb] = func(c C, r *Reply, args string) {
		word, clause, ok := strings.Cut(args, " ")
		if !ok {
			r.failf("usage: %s assert|retract <clause>.", verb)
			return
		}
		op, err := wal.ParseOp(word)
		if err != nil {
			r.Fail(err)
			return
		}
		h(c, r, op, strings.TrimSuffix(strings.TrimSpace(clause), "."))
	}
}

// Sync registers a "<shard> <from-seq>" verb.
func (t Table[C]) Sync(verb string, h func(C, *Reply, int, uint64)) {
	t[verb] = func(c C, r *Reply, args string) {
		fields := strings.Fields(args)
		if len(fields) != 2 {
			r.failf("usage: %s <shard> <from-seq>", verb)
			return
		}
		shard, err := strconv.Atoi(fields[0])
		if err != nil {
			r.failf("bad shard %q", fields[0])
			return
		}
		from, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			r.failf("bad from-seq %q", fields[1])
			return
		}
		h(c, r, shard, from)
	}
}

// Record registers a verb whose argument is one log record in
// wal.Record.WireText form.
func (t Table[C]) Record(verb string, h func(C, *Reply, wal.Record)) {
	t[verb] = func(c C, r *Reply, args string) {
		rec, err := wal.ParseRecordText(args)
		if err != nil {
			r.Fail(err)
			return
		}
		h(c, r, rec)
	}
}

// Serve runs one connection: it reads request lines until QUIT, end of
// input or an oversized line, dispatches each through the table with c
// as the connection's state, and flushes the reply when the verb
// returns. errs counts the rejections sent (nil counts nothing). Serve
// closes conn.
func (t Table[C]) Serve(conn net.Conn, c C, errs *telemetry.Counter) {
	defer conn.Close()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64*1024), MaxLine)
	r := &Reply{w: bufio.NewWriterSize(conn, replyBuffer), errs: errs}
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		word, args, _ := strings.Cut(line, " ")
		verb := strings.ToUpper(word)
		if h, ok := t[verb]; ok {
			h(c, r, args)
		} else if verb == "QUIT" {
			r.Line("BYE")
		} else {
			r.failf("unknown command %q", word)
		}
		if r.w.Flush() != nil || verb == "QUIT" {
			return
		}
	}
	if errors.Is(in.Err(), bufio.ErrTooLong) {
		r.failf("line too long (max %d bytes)", MaxLine)
		r.w.Flush() //nolint:errcheck // the connection is dropped either way
	}
}

// cutTraceHeader splits an optional trailing trace-context token off a
// goal text: "p(X). trace=<id>:<span>" → ("p(X).", context). Text
// without a well-formed header — including everything an old client can
// send, since the token must follow the goal's terminating '.' — is
// returned unchanged for the goal parser to judge.
func cutTraceHeader(text string) (string, *telemetry.TraceContext) {
	i := strings.LastIndexByte(text, ' ')
	if i < 0 || !strings.HasPrefix(text[i+1:], "trace=") {
		return text, nil
	}
	goal := strings.TrimRight(text[:i], " ")
	if !strings.HasSuffix(goal, ".") {
		return text, nil
	}
	tc, err := telemetry.ParseTraceContext(strings.TrimPrefix(text[i+1:], "trace="))
	if err != nil {
		return text, nil
	}
	return goal, &tc
}

// Reply is what a verb handler writes its answer through. It buffers
// the whole reply; the connection loop flushes it when the verb
// returns.
type Reply struct {
	w    *bufio.Writer
	errs *telemetry.Counter
}

// OK answers "OK" followed by the given values.
func (r *Reply) OK(vals ...any) {
	r.w.WriteString("OK")
	r.values(vals)
}

// Fail answers "ERR <message>". An error relayed from another CRS
// server reads as that server's original reply.
func (r *Reply) Fail(err error) {
	var se *ServerError
	if errors.As(err, &se) {
		r.failf("%s", se.Msg)
	} else {
		r.failf("%v", err)
	}
}

func (r *Reply) failf(format string, args ...any) {
	r.errs.Inc()
	r.w.WriteString(errPrefix)
	r.Line(format, args...)
}

// Done answers a request whose whole outcome is err: Fail(err), or
// OK(vals...) when err is nil.
func (r *Reply) Done(err error, vals ...any) {
	if err != nil {
		r.Fail(err)
	} else {
		r.OK(vals...)
	}
}

// Header starts a counted reply: "<verb> <n>", then any further header
// values; n Body lines follow.
func (r *Reply) Header(verb string, n int, more ...any) {
	r.w.WriteString(verb)
	r.w.WriteByte(' ')
	r.w.WriteString(strconv.Itoa(n))
	r.values(more)
}

func (r *Reply) values(vals []any) {
	for _, v := range vals {
		r.w.WriteByte(' ')
		fmt.Fprint(r.w, v)
	}
	r.w.WriteByte('\n')
}

// Block writes a whole counted reply from body lines that are already
// framed — n lines, each "<tag> <text>\n", as AppendCandidateLines
// renders them or Conn.Block read them — with no per-line work.
func (r *Reply) Block(verb string, n int, body []byte) {
	r.Header(verb, n)
	r.w.Write(body)
}

// BlockString is Block for a body held as a string.
func (r *Reply) BlockString(verb string, n int, body string) {
	r.Header(verb, n)
	r.w.WriteString(body)
}

// Body writes one tagged body line, "<tag> <formatted>".
func (r *Reply) Body(tag, format string, args ...any) {
	r.w.WriteString(tag)
	r.w.WriteByte(' ')
	r.Line(format, args...)
}

// Line writes one untagged line — a counted reply's trailer.
func (r *Reply) Line(format string, args ...any) {
	fmt.Fprintf(r.w, format, args...)
	r.w.WriteByte('\n')
}

// Funnel is a RETRIEVE reply's trailer line: the mode that served the
// retrieval and the candidate counts before and after each filter.
type Funnel struct {
	Mode            string
	Total, FS1, FS2 int64
}

func (f Funnel) String() string {
	return fmt.Sprintf("STATS mode=%s total=%d fs1=%d fs2=%d", f.Mode, f.Total, f.FS1, f.FS2)
}

// ParseFunnel reads a trailer back; unparsable fields read as zero. A
// well-formed trailer allocates nothing: the router parses one per routed
// retrieval, so fields are cut in place and only the numeric keys' values
// go through ParseInt (whose error for "fs1+fs2" would allocate).
func ParseFunnel(line string) (f Funnel) {
	for rest := line; rest != ""; {
		var field string
		field, rest, _ = strings.Cut(rest, " ")
		k, v, _ := strings.Cut(field, "=")
		switch k {
		case "mode":
			f.Mode = v
		case "total":
			f.Total, _ = strconv.ParseInt(v, 10, 64)
		case "fs1":
			f.FS1, _ = strconv.ParseInt(v, 10, 64)
		case "fs2":
			f.FS2, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return f
}

// Trace ends a traced reply with its span subtree; "-" stands for "no
// trace recorded" (the server has no tracer).
func (r *Reply) Trace(spans []telemetry.WireSpan) {
	tok := telemetry.EncodeWireSpans(spans)
	if tok == "" {
		tok = "-"
	}
	r.Line("TRACE %s", tok)
}

// Log writes a SYNC reply: the records and the log's last sequence
// number.
func (r *Reply) Log(recs []wal.Record, last uint64) {
	r.Header("LOG", len(recs), last)
	for _, rec := range recs {
		r.Body("R", "%s", rec.WireText())
	}
}

// JSONBody writes a counted reply whose body lines are the records as
// single-line JSON objects.
func JSONBody[T any](r *Reply, verb, tag string, recs []T) {
	r.Header(verb, len(recs))
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		r.Body(tag, "%s", blob)
	}
}
