package cluster

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// delayProxy forwards TCP bytes to a backend, delaying every
// backend-to-client chunk by a fixed duration once afterLine request
// lines (client-to-backend newlines) have passed — afterLine 0 is a
// uniformly slow replica, afterLine n lets the handshake and warm-up
// traffic through fast and stalls what follows.
type delayProxy struct {
	l         net.Listener
	backend   string
	delay     time.Duration
	afterLine int64
	lines     atomic.Int64
}

func newDelayProxy(t *testing.T, backend string, delay time.Duration, afterLine int64) *delayProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProxy{l: l, backend: backend, delay: delay, afterLine: afterLine}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go p.handle(c)
		}
	}()
	return p
}

func (p *delayProxy) addr() string { return p.l.Addr().String() }

func (p *delayProxy) handle(client net.Conn) {
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				for _, b := range buf[:n] {
					if b == '\n' {
						p.lines.Add(1)
					}
				}
				if _, werr := backend.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		backend.Close()
		client.Close()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := backend.Read(buf)
		if n > 0 {
			if p.lines.Load() > p.afterLine {
				time.Sleep(p.delay)
			}
			if _, werr := client.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	client.Close()
	backend.Close()
}

// TestHedgeCutsSlowReplica puts the declared-first replica behind a
// 30ms delay proxy: a hedged retrieval must fire a duplicate at the
// hedge floor, win on the fast replica, and return well under the slow
// replica's wall.
func TestHedgeCutsSlowReplica(t *testing.T) {
	p := facts("hedgey", 8)
	_, slow := startBackend(t, []testPred{p})
	_, fast := startBackend(t, []testPred{p})
	proxy := newDelayProxy(t, slow.Addr().String(), 30*time.Millisecond, 0)

	r := newTestRouter(t, [][]string{{proxy.addr(), fast.Addr().String()}}, func(c *Config) {
		c.Hedge = true
		c.HedgeFloor = 5 * time.Millisecond
	})

	start := time.Now()
	res, err := r.Retrieve("auto", p.name+"(e1, V)")
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 1 {
		t.Fatalf("got %d clauses, want 1", len(res.Clauses))
	}
	if wall >= 25*time.Millisecond {
		t.Fatalf("hedged retrieval took %v, want well under the slow replica's 30ms delay", wall)
	}
	if got := r.hedges.Load(); got != 1 {
		t.Fatalf("hedges fired = %d, want 1", got)
	}
	if got := r.hedgeWins.Load(); got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int64{
		"cluster.hedge.enabled": 1,
		"cluster.hedges":        1,
		"cluster.hedge.wins":    1,
	} {
		if st[k] != want {
			t.Fatalf("Stats()[%q] = %d, want %d", k, st[k], want)
		}
	}
}

// TestHedgeAbortsInFlightArm stalls the slow replica only after the
// handshake and one warm request have passed, so the stalled
// arm holds a pooled, registered connection mid-call when the hedge
// wins. The winning return must not wait out the loser's reply —
// cancellation severs the connection instead of negotiating QUIT
// behind the stalled response.
func TestHedgeAbortsInFlightArm(t *testing.T) {
	p := facts("midflight", 8)
	_, slow := startBackend(t, []testPred{p})
	_, fast := startBackend(t, []testPred{p})
	// Lines 1-2 are HELLO and the warm retrieval; everything after
	// stalls 30ms.
	proxy := newDelayProxy(t, slow.Addr().String(), 30*time.Millisecond, 2)

	r := newTestRouter(t, [][]string{{proxy.addr(), fast.Addr().String()}}, func(c *Config) {
		c.Hedge = true
		c.HedgeFloor = 5 * time.Millisecond
	})

	if _, err := r.Retrieve("auto", p.name+"(e1, V)"); err != nil {
		t.Fatal(err)
	}
	if got := r.hedges.Load(); got != 0 {
		t.Fatalf("warm request hedged (%d), want 0", got)
	}
	// Pin the proxied replica at the head of the candidate order: the
	// warm request left it a latency sample, and once that sample
	// exceeds the other replica's idle prior (routine under -race) the
	// load-aware ranking would route the next request around the stall
	// this test exists to exercise.
	for i := 0; i < 64; i++ {
		r.nodeLat.Observe(proxy.addr(), 100*time.Microsecond)
	}

	start := time.Now()
	res, err := r.Retrieve("auto", p.name+"(e2, V)")
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 1 {
		t.Fatalf("got %d clauses, want 1", len(res.Clauses))
	}
	if wall >= 25*time.Millisecond {
		t.Fatalf("hedged retrieval took %v: the winning arm waited out the aborted arm's stalled reply", wall)
	}
	if got, won := r.hedges.Load(), r.hedgeWins.Load(); got != 1 || won != 1 {
		t.Fatalf("hedges fired = %d won = %d, want 1/1", got, won)
	}
}

// TestHedgeFastReplicaNoFire leaves both replicas fast: no hedge
// should fire on a request that answers inside the floor.
func TestHedgeFastReplicaNoFire(t *testing.T) {
	p := facts("calm", 8)
	_, a := startBackend(t, []testPred{p})
	_, b := startBackend(t, []testPred{p})
	r := newTestRouter(t, [][]string{{a.Addr().String(), b.Addr().String()}}, func(c *Config) {
		c.Hedge = true
		c.HedgeFloor = 500 * time.Millisecond
	})
	for i := 0; i < 10; i++ {
		if _, err := r.Retrieve("auto", fmt.Sprintf("%s(e%d, V)", p.name, i%8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.hedges.Load(); got != 0 {
		t.Fatalf("hedges fired = %d, want 0 with fast replicas", got)
	}
}

// TestHedgeFailoverWhenBothArmsDie kills both hedge arms' backends: a
// third replica must still answer through the post-hedge failover
// ladder.
func TestHedgeFailoverWhenBothArmsDie(t *testing.T) {
	p := facts("ladder", 6)
	tc := startCluster(t, 1, 3, []testPred{p})
	tc.kill(t, 0, 0)
	tc.kill(t, 0, 1)
	r := newTestRouter(t, tc.addrs, func(c *Config) {
		c.Hedge = true
		c.HedgeFloor = time.Millisecond
	})
	res, err := r.Retrieve("auto", p.name+"(e2, V)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 1 {
		t.Fatalf("got %d clauses, want 1", len(res.Clauses))
	}
}
