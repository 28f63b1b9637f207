package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"clare/internal/telemetry"
)

// ServerError is a protocol-level "ERR <message>" reply: the server
// received the request and rejected it. It is never retried — retrying
// a rejected request would just be rejected again (or worse, applied
// twice after a transient rejection).
type ServerError struct {
	// Msg is the server's message after the ERR prefix.
	Msg string
}

func (e *ServerError) Error() string { return "crs server: " + e.Msg }

// Conn is the client end of one connection: the mirror of Table.Serve
// and Reply.
type Conn struct {
	conn net.Conn
	in   *bufio.Scanner
	out  *bufio.Writer
	// Timeout bounds each wire read and write from now on (each gets a
	// fresh deadline); <= 0 sets no deadline.
	Timeout time.Duration
	// blockHint is the size of the last block read, the next one's first
	// allocation: a connection's replies tend to be alike.
	blockHint int
}

// NewConn wraps an established connection.
func NewConn(conn net.Conn) *Conn {
	c := &Conn{conn: conn, out: bufio.NewWriter(conn)}
	c.in = bufio.NewScanner(deadlineReader{c})
	c.in.Buffer(make([]byte, 0, 64*1024), MaxLine)
	return c
}

// deadlineReader is the connection as the line scanner reads it: every
// read that goes to the wire gets a fresh deadline, and lines already
// buffered cost none — a 500-line body is a handful of reads, not 500
// timer updates.
type deadlineReader struct{ c *Conn }

func (r deadlineReader) Read(p []byte) (int, error) {
	if r.c.Timeout > 0 {
		if err := r.c.conn.SetReadDeadline(time.Now().Add(r.c.Timeout)); err != nil {
			return 0, err
		}
	}
	return r.c.conn.Read(p)
}

// Close drops the connection without a QUIT handshake.
func (c *Conn) Close() error { return c.conn.Close() }

// Term renders a goal or clause argument: the source, its terminating
// '.', and the trace header when tc is non-nil.
func Term(src string, tc *telemetry.TraceContext) string {
	if tc == nil {
		return src + "."
	}
	return src + ". trace=" + tc.String()
}

// Call sends one request — the verb and its arguments separated by
// spaces — and returns the first reply line. An "ERR <message>" reply
// comes back as a *ServerError.
func (c *Conn) Call(verb string, args ...string) (string, error) {
	if c.Timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
			return "", err
		}
	}
	c.out.WriteString(verb)
	for _, a := range args {
		c.out.WriteByte(' ')
		c.out.WriteString(a)
	}
	c.out.WriteByte('\n')
	if err := c.out.Flush(); err != nil {
		return "", err
	}
	resp, err := c.Line()
	if err != nil {
		return "", err
	}
	if msg, ok := strings.CutPrefix(resp, errPrefix); ok {
		return "", &ServerError{Msg: msg}
	}
	return resp, nil
}

// Line reads the next reply line.
func (c *Conn) Line() (string, error) {
	if err := c.scan(); err != nil {
		return "", err
	}
	return c.in.Text(), nil
}

// scan advances to the next reply line.
func (c *Conn) scan() error {
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return err
		}
		return errors.New("crs client: connection closed")
	}
	return nil
}

// Block reads the body of a counted reply whose header line ("<verb>
// <n>[ <more>]") Call already returned, as one block: the n body lines
// exactly as framed, each "<tag> <text>\n", in one string — what
// Reply.BlockString forwards unparsed. Every line is checked for the tag
// and against MaxLine as it is copied. Block returns the count and the
// header's text after it.
func (c *Conn) Block(header, verb, tag string) (block string, n int, more string, err error) {
	counts, ok := strings.CutPrefix(header, verb+" ")
	count, more, _ := strings.Cut(counts, " ")
	n, err = strconv.Atoi(count)
	if !ok || err != nil || n < 0 {
		return "", 0, "", fmt.Errorf("crs client: unexpected %s reply %q", verb, header)
	}
	var b strings.Builder
	b.Grow(c.blockHint)
	for i := 0; i < n; i++ {
		if err := c.scan(); err != nil {
			return "", 0, "", err
		}
		line := c.in.Bytes()
		if len(line) <= len(tag) || line[len(tag)] != ' ' || string(line[:len(tag)]) != tag {
			return "", 0, "", fmt.Errorf("crs client: unexpected %s line %q", verb, line)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	c.blockHint = b.Len()
	return b.String(), n, more, nil
}

// Lines calls each with the text of every line of a block Block
// returned, after its "<tag> " prefix, in order, until one fails. The
// texts are substrings of block.
func Lines(block, tag string, each func(text string) error) error {
	for block != "" {
		line, rest, _ := strings.Cut(block, "\n")
		if err := each(line[len(tag)+1:]); err != nil {
			return fmt.Errorf("crs client: bad line %q: %w", line, err)
		}
		block = rest
	}
	return nil
}

// Body reads a counted reply the way Block does and calls each with
// every body line's text after its "<tag> " prefix, in order. Body
// returns the header's text after the count.
func (c *Conn) Body(header, verb, tag string, each func(body string) error) (more string, err error) {
	block, _, more, err := c.Block(header, verb, tag)
	if err != nil {
		return "", err
	}
	if err := Lines(block, tag, each); err != nil {
		return "", err
	}
	return more, nil
}

// Trace reads and decodes the TRACE line a traced call ends with ("-"
// decodes to no spans).
func (c *Conn) Trace() ([]telemetry.WireSpan, error) {
	line, err := c.Line()
	if err != nil {
		return nil, err
	}
	tok, ok := strings.CutPrefix(line, "TRACE ")
	if !ok {
		return nil, fmt.Errorf("crs client: unexpected trace line %q", line)
	}
	if tok == "-" {
		return nil, nil
	}
	spans, err := telemetry.DecodeWireSpans(tok)
	if err != nil {
		return nil, fmt.Errorf("crs client: %w", err)
	}
	return spans, nil
}
