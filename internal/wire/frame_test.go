package wire_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"clare/internal/cluster"
	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/term"
	"clare/internal/wire"
)

// countingListener hands out connections that tally the writes and
// bytes the server puts on them.
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// listen opens a loopback listener, serves it, and closes it with the
// test.
func listen(t *testing.T, serve func(net.Listener) error) *countingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	go serve(cl) //nolint:errcheck // returns when the listener closes
	t.Cleanup(func() { l.Close() })
	return cl
}

// TestOneFlushPerReply pins the framing rule on both servers: a reply —
// however many lines — reaches the connection in at most
// ⌈bytes/buffer⌉+1 writes, not one write per line.
func TestOneFlushPerReply(t *testing.T) {
	const rows = 600
	r, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	backend := crs.NewServer(r)
	clauses := make([]core.ClauseTerm, rows)
	for i := range clauses {
		clauses[i] = core.ClauseTerm{Head: term.New("wide", term.Atom("k"), term.Int(i))}
	}
	if err := backend.Load("frame", clauses); err != nil {
		t.Fatal(err)
	}
	direct := listen(t, backend.Serve)

	router, err := cluster.NewRouter(cluster.Config{
		Shards:      [][]string{{direct.Addr().String()}},
		WireTimeout: 2 * time.Second,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	front := listen(t, cluster.NewServer(router).Serve)

	for _, tc := range []struct {
		name string
		l    *countingListener
	}{{"crs", direct}, {"cluster", front}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := crs.Dial(tc.l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			check := func(what string, lines int) {
				t.Helper()
				writes, bytes := tc.l.writes.Swap(0), tc.l.bytes.Swap(0)
				if max := (bytes+wire.ReplyBuffer-1)/wire.ReplyBuffer + 1; writes > max {
					t.Errorf("%s: %d lines, %d bytes reached the connection in %d writes, want <= %d",
						what, lines, bytes, writes, max)
				}
			}
			check("HELLO", 1)
			res, err := c.Retrieve("fs2", "wide(k, V)")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Clauses) != rows {
				t.Fatalf("%d candidates, want %d", len(res.Clauses), rows)
			}
			check("RETRIEVE", rows+2)
			kv, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("STATS (%d keys)", len(kv)), len(kv)+1)
		})
	}
}
