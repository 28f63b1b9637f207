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
}

// NewConn wraps an established connection.
func NewConn(conn net.Conn) *Conn {
	c := &Conn{conn: conn, in: bufio.NewScanner(conn), out: bufio.NewWriter(conn)}
	c.in.Buffer(make([]byte, 0, 64*1024), MaxLine)
	return c
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
	if c.Timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
			return "", err
		}
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return "", err
		}
		return "", errors.New("crs client: connection closed")
	}
	return c.in.Text(), nil
}

// Body reads a counted reply whose header line ("<verb> <n>[ <more>]")
// Call already returned: each is called with every body line's text
// after its "<tag> " prefix, in order. Body returns the header's text
// after the count.
func (c *Conn) Body(header, verb, tag string, each func(body string) error) (more string, err error) {
	counts, ok := strings.CutPrefix(header, verb+" ")
	count, more, _ := strings.Cut(counts, " ")
	n, err := strconv.Atoi(count)
	if !ok || err != nil || n < 0 {
		return "", fmt.Errorf("crs client: unexpected %s reply %q", verb, header)
	}
	prefix := tag + " "
	for i := 0; i < n; i++ {
		line, err := c.Line()
		if err != nil {
			return "", err
		}
		body, ok := strings.CutPrefix(line, prefix)
		if !ok {
			return "", fmt.Errorf("crs client: unexpected %s line %q", verb, line)
		}
		if err := each(body); err != nil {
			return "", fmt.Errorf("crs client: bad %s line %q: %w", verb, line, err)
		}
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
