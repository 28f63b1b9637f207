package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"clare/internal/telemetry"
	"clare/internal/wal"
)

// stubVerbs is a server with no engine behind it: every verb echoes its
// parsed arguments, so the tests see exactly what the table hands over.
var stubVerbs = Table[struct{}]{}

func init() {
	stubVerbs.Plain("HELLO", func(_ struct{}, r *Reply) { r.OK("crs", 1) })
	stubVerbs.Count("FLIGHT", func(_ struct{}, r *Reply, n int) { JSONBody(r, "FLIGHT", "F", make([]int, n)) })
	stubVerbs.Query("RETRIEVE", func(_ struct{}, r *Reply, q Query) {
		n, err := strconv.Atoi(q.Mode)
		if err != nil {
			r.Fail(fmt.Errorf("crs: unknown mode %q", q.Mode))
			return
		}
		var body []byte
		for i := 0; i < n; i++ {
			body = fmt.Appendf(body, "C %s :- row(%d).\n", q.Goal, i)
		}
		r.Block("CANDIDATES", n, body)
		r.Line("%v", Funnel{Mode: "fs2", Total: int64(n), FS1: int64(n), FS2: int64(n)})
		if q.Trace != nil {
			r.Trace(nil)
		}
	})
	stubVerbs.Clause("ASSERT", func(_ struct{}, r *Reply, clause string) { r.OK(clause) })
	stubVerbs.Write("WRITE", func(_ struct{}, r *Reply, op wal.Op, clause string) { r.OK(op, clause) })
	stubVerbs.Sync("SYNC", func(_ struct{}, r *Reply, shard int, from uint64) {
		r.Log([]wal.Record{{Seq: from, Op: wal.OpAssert, Module: "m", Clause: "p(a)"}}, from+uint64(shard))
	})
	stubVerbs.Record("REPL", func(_ struct{}, r *Reply, rec wal.Record) { r.Done(nil, rec.Seq) })
}

// stubConn serves stubVerbs on one end of a pipe and returns the client
// end wrapped in a Conn.
func stubConn(tb testing.TB, errs *telemetry.Counter) *Conn {
	client, server := net.Pipe()
	go stubVerbs.Serve(server, struct{}{}, errs)
	tb.Cleanup(func() { client.Close() })
	return NewConn(client)
}

// TestRequestParsing pins what each argument shape accepts and the one
// rejection text each malformed request draws.
func TestRequestParsing(t *testing.T) {
	errs := telemetry.NewRegistry().Counter("errs", "", nil)
	c := stubConn(t, errs)
	rejected := 0
	for _, tc := range []struct{ verb, args, want string }{
		{"hello", "ignored", "OK crs 1"},
		{"FLIGHT", "", "FLIGHT 0"},
		{"FLIGHT", "x", "ERR usage: FLIGHT [<n>]"},
		{"FLIGHT", "-1", "ERR usage: FLIGHT [<n>]"},
		{"RETRIEVE", "fs2", "ERR usage: RETRIEVE <mode> <goal>"},
		{"RETRIEVE", "warp p(X).", `ERR crs: unknown mode "warp"`},
		{"RETRIEVE", "0 p(X).", "CANDIDATES 0"},
		{"ASSERT", "p(a) :- q.", "OK p(a) :- q"},
		{"WRITE", "assert", "ERR usage: WRITE assert|retract <clause>."},
		{"WRITE", "frob p(a).", `ERR wal: unknown op "frob"`},
		{"WRITE", "retract  p(a).", "OK retract p(a)"},
		{"SYNC", "0", "ERR usage: SYNC <shard> <from-seq>"},
		{"SYNC", "x 1", `ERR bad shard "x"`},
		{"SYNC", "0 -1", `ERR bad from-seq "-1"`},
		{"REPL", "x y", "ERR wal: bad record"},
		{"REPL", "7 assert m p(a)", "OK 7"},
		{"FROB", "twiddle", `ERR unknown command "FROB"`},
	} {
		got, err := c.Call(tc.verb, tc.args)
		if se, ok := err.(*ServerError); ok {
			got = "ERR " + se.Msg
			rejected++
		} else if err != nil {
			t.Fatalf("%s %s: %v", tc.verb, tc.args, err)
		}
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s %s → %q, want prefix %q", tc.verb, tc.args, got, tc.want)
		}
		if got == "CANDIDATES 0" { // drain the trailer
			if _, err := c.Line(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := errs.Value(); got != int64(rejected) {
		t.Errorf("ERR counter = %d, want %d (one per rejection, nothing else)", got, rejected)
	}
}

// TestCountedReplies reads the stub's counted replies back through the
// client half: header, tagged body, trailer, trace line.
func TestCountedReplies(t *testing.T) {
	c := stubConn(t, nil)
	tc := &telemetry.TraceContext{TraceID: 9, ParentSpan: 3}
	first, err := c.Call("RETRIEVE", "3", Term("p(X)", tc))
	if err != nil {
		t.Fatal(err)
	}
	var clauses []string
	if _, err := c.Body(first, "CANDIDATES", "C", func(cl string) error {
		clauses = append(clauses, cl)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 3 || clauses[2] != "p(X) :- row(2)." {
		t.Errorf("clauses = %q", clauses)
	}
	trailer, err := c.Line()
	if err != nil {
		t.Fatal(err)
	}
	if fn := ParseFunnel(trailer); fn != (Funnel{Mode: "fs2", Total: 3, FS1: 3, FS2: 3}) {
		t.Errorf("trailer %q parsed as %+v", trailer, fn)
	}
	if spans, err := c.Trace(); err != nil || spans != nil {
		t.Errorf("trace line: %v, %v", spans, err)
	}

	first, err = c.Call("SYNC", "2", "5")
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	last, err := c.Body(first, "LOG", "R", func(body string) error {
		rec, err := wal.ParseRecordText(body)
		recs = append(recs, rec)
		return err
	})
	if err != nil || last != "7" || len(recs) != 1 || recs[0].Seq != 5 {
		t.Errorf("SYNC → last %q recs %+v err %v", last, recs, err)
	}
	if _, err := c.Body("STATS many", "STATS", "S", nil); err == nil {
		t.Error("malformed count accepted")
	}
	if _, err := c.Body("FLIGHT 1", "STATS", "S", nil); err == nil {
		t.Error("wrong header verb accepted")
	}
}

// rawConn is a Conn whose peer writes reply, byte for byte, and then
// either closes or (hold) goes silent with the connection open.
func rawConn(t *testing.T, reply string, hold bool) *Conn {
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	go func() {
		io.WriteString(server, reply) //nolint:errcheck // the test closes the pipe under a long write
		if !hold {
			server.Close()
		}
	}()
	return NewConn(client)
}

// TestBlockReader pins what reading a counted body as one block keeps of
// the line-by-line reader: the tag is checked on every line, the count is
// exact in both directions, no line may exceed MaxLine, and a peer that
// stalls mid-body trips the read deadline.
func TestBlockReader(t *testing.T) {
	c := rawConn(t, "C a.\nC b :- c.\nSTATS x\n", false)
	block, n, more, err := c.Block("CANDIDATES 2 extra", "CANDIDATES", "C")
	if err != nil || block != "C a.\nC b :- c.\n" || n != 2 || more != "extra" {
		t.Errorf("Block = %q, %d, %q, %v", block, n, more, err)
	}
	var texts []string
	err = Lines(block, "C", func(s string) error { texts = append(texts, s); return nil })
	if err != nil || len(texts) != 2 || texts[0] != "a." || texts[1] != "b :- c." {
		t.Errorf("Lines = %q", texts)
	}
	if next, err := c.Line(); err != nil || next != "STATS x" {
		t.Errorf("line after the block = %q, %v: the block took more or fewer than its count", next, err)
	}

	for _, tc := range []struct{ name, header, reply, want string }{
		{"wrong tag", "CANDIDATES 2", "C a.\nS b.\n", `unexpected CANDIDATES line "S b."`},
		{"tag without text", "CANDIDATES 1", "C\n", `unexpected CANDIDATES line "C"`},
		{"tag run into text", "CANDIDATES 1", "Cx a.\n", `unexpected CANDIDATES line "Cx a."`},
		{"short count", "CANDIDATES 3", "C a.\nC b.\n", "connection closed"},
		{"oversized line", "CANDIDATES 2", "C a.\nC " + strings.Repeat("x", MaxLine) + "\n", bufio.ErrTooLong.Error()},
		{"negative count", "CANDIDATES -1", "", `unexpected CANDIDATES reply "CANDIDATES -1"`},
	} {
		_, _, _, err := rawConn(t, tc.reply, false).Block(tc.header, "CANDIDATES", "C")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	c = rawConn(t, "C a.\n", true)
	c.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, _, _, err = c.Block("CANDIDATES 2", "CANDIDATES", "C")
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("stalled body: err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("stalled body returned after %v", d)
	}
}

func TestCutTraceHeader(t *testing.T) {
	for _, tc := range []struct {
		in, goal string
		traced   bool
	}{
		{"p(X). trace=9:3", "p(X).", true},
		{"p(X).   trace=9:3", "p(X).", true},
		{"p(X) trace=9:3", "p(X) trace=9:3", false}, // the token must follow the '.'
		{"p(X). trace=bad", "p(X). trace=bad", false},
		{"p(X).", "p(X).", false},
	} {
		goal, ctx := cutTraceHeader(tc.in)
		if goal != tc.goal || (ctx != nil) != tc.traced {
			t.Errorf("cutTraceHeader(%q) = %q, %v", tc.in, goal, ctx)
		}
	}
}

var benchSink int

// BenchmarkWireReply prices the wire layer alone — request parse, reply
// framing, client read — with no engine behind it, for a point reply
// and a wide one.
func BenchmarkWireReply(b *testing.B) {
	for _, n := range []int{1, 500} {
		b.Run(fmt.Sprintf("candidates=%d", n), func(b *testing.B) {
			c := stubConn(b, nil)
			mode := strconv.Itoa(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				first, err := c.Call("RETRIEVE", mode, Term("p(c17, V)", nil))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Body(first, "CANDIDATES", "C", func(cl string) error {
					benchSink += len(cl)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Line(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
