// Package wiretest holds the one wire-protocol fuzz target. It lives
// outside the wire package's own tests so that every server speaking
// the protocol (crs, the cluster front-end) binds the same corpus and
// reply oracle to its connection handler from its own test package.
package wiretest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"clare/internal/wire"
)

// seeds is the corpus: every verb, well-formed and malformed. New seeds
// go at the end — the test names seed#N are positional.
var seeds = []string{
	"HELLO\n",
	"HELLO\nRETRIEVE fs2 m(1, X).\nQUIT\n",
	"RETRIEVE auto m(X, Y).\n",
	"RETRIEVE software m(0, x).\nRETRIEVE fs1 m(1, x).\nRETRIEVE fs1+fs2 m(2, x).\n",
	"RETRIEVE bogusmode m(1, X).\n",
	"RETRIEVE fs2\n",
	"RETRIEVE fs2 )(!!bad term.\n",
	"RETRIEVE fs2 unknown_pred(X).\n",
	"BEGIN\nASSERT m(9, y).\nCOMMIT\nQUIT\n",
	"BEGIN\nASSERT m(9, y).\nABORT\n",
	"WRITE assert m(9, y).\nWRITE retract m(9, y).\n",
	"WRITE frob m(9, y).\nWRITE assert\nWRITE\n",
	"SYNC 0 1\nSYNC 0 0\nQUIT\n",
	"SYNC\nSYNC x y\nSYNC 0 -1\nSYNC 0 99999999999999999999\n",
	"REPL 1 assert fuzz m(7, z)\nREPL 1 assert fuzz m(7, z)\n",
	"REPL 0 assert fuzz m(7, z)\nREPL x y\nREPL 2 frob fuzz m(7, z)\nREPL\n",
	"ASSERT m(1, x).\n",
	"COMMIT\nABORT\nBEGIN\nBEGIN\n",
	"STATS\nSTATS\n",
	"EXPLAIN auto m(1, X).\nSTATS\n",
	"EXPLAIN fs2 m(1, X).\n",
	"EXPLAIN fs1+fs2 m(X, Y).\nEXPLAIN software m(0, x).\n",
	"EXPLAIN bogusmode m(1, X).\nEXPLAIN\nEXPLAIN auto\n",
	"stats\nhello\nquit\n",
	"QUIT\nHELLO\n",
	"\n\n   \n\t\n",
	"NOSUCHCOMMAND with args\n",
	"ASSERT m(1, x) :- true.\n",
	"RETRIEVE fs2 m([a, b | T], X).\n",
	"\x00\xff\xfe garbage \x01\n",
	strings.Repeat("A", 70*1024) + "\n", // crosses the scanner's initial buffer
	"RETRIEVE fs2 m(1, X).\nFLIGHT\nSLOWLOG 3\nFLIGHT 1\nSLOWLOG\n",
	"FLIGHT x\nSLOWLOG 1 2\nFLIGHT 99999999999999999999\n",
	"FLIGHT -1\nSLOWLOG -3\n",
	"RETRIEVE fs2 m(1, X). trace=9:3\nEXPLAIN auto m(1, X). trace=9:3\nRETRIEVE fs2 m(1, X). trace=bad\n",
}

// replyOK reports whether one server output line is well-formed: every
// reply the protocol defines starts with one of these tokens.
func replyOK(line string) bool {
	tok, _, _ := strings.Cut(line, " ")
	switch tok {
	case "OK", "BYE", "ERR", "CANDIDATES", "STATS", "S", "C", "LOG", "R",
		"EXPLAIN", "E", "TRACE", "FLIGHT", "F":
		return true
	}
	return false
}

// Fuzz throws arbitrary bytes at serve, a server's connection handler.
// The invariants: the handler never panics, never hangs (malformed
// input is answered with ERR and the loop continues or the connection
// drops), and every line it writes back is a well-formed protocol
// reply.
func Fuzz(f *testing.F, serve func(net.Conn)) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serve(server)
		}()
		// Drain every reply concurrently: net.Pipe is unbuffered, so the
		// handler's writes block until read. EOF arrives when the handler
		// returns and closes its end.
		replies := make(chan []byte, 1)
		go func() {
			var buf bytes.Buffer
			_, _ = io.Copy(&buf, client)
			replies <- buf.Bytes()
		}()

		_ = client.SetWriteDeadline(time.Now().Add(5 * time.Second))
		_, _ = client.Write(data)
		// Terminate cleanly whatever state the input left the handler in;
		// write errors just mean it already hung up.
		_, _ = client.Write([]byte("\nQUIT\n"))

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("wire handler hung on %d-byte input %s", len(data), truncate(data, 128))
		}
		out := <-replies
		client.Close()

		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 0, 64*1024), wire.MaxLine+64)
		for sc.Scan() {
			if line := sc.Text(); !replyOK(line) {
				t.Fatalf("malformed reply line %s for input %s", truncate([]byte(line), 128), truncate(data, 128))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning replies: %v", err)
		}
	})
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return fmt.Sprintf("%q…", b[:n])
	}
	return fmt.Sprintf("%q", b)
}
