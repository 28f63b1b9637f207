package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"clare/internal/crs"
)

// Load-shape constants: the same on both sides of any comparison.
const (
	// rounds is how many equal rounds the measured window is cut into;
	// every timing metric is the median over rounds of the round's own
	// statistic.
	rounds = 10
	// warmOps operations per client run untimed before the window, or
	// warmMax of them, whichever ends first (a write takes milliseconds).
	warmOps = 2000
	warmMax = 500 * time.Millisecond
)

// send performs one operation on c and checks what came back: a
// retrieval's STATS trailer must be a well-formed, monotone funnel
// (total ≥ fs1 ≥ fs2) whose last stage is the number of clauses sent.
func send(c *crs.Client, o op) (*crs.RetrieveResult, error) {
	switch o.kind {
	case opAssert:
		_, err := c.AssertNow(o.text)
		return nil, err
	case opRetract:
		_, err := c.Retract(o.text)
		return nil, err
	}
	res, err := c.Retrieve(o.mode, o.text)
	if err != nil {
		return nil, err
	}
	return res, checkFunnel(res)
}

// funnelField reads the decimal after key in a STATS trailer.
func funnelField(line, key string) (int, bool) {
	i := strings.Index(line, key)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

func checkFunnel(res *crs.RetrieveResult) error {
	total, ok1 := funnelField(res.Stats, " total=")
	fs1, ok2 := funnelField(res.Stats, " fs1=")
	fs2, ok3 := funnelField(res.Stats, " fs2=")
	if !strings.HasPrefix(res.Stats, "STATS mode=") || !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("malformed trailer %q", res.Stats)
	}
	if total < fs1 || fs1 < fs2 || fs2 != len(res.Clauses) {
		return fmt.Errorf("funnel not monotone: %q with %d clauses", res.Stats, len(res.Clauses))
	}
	return nil
}

// samples is what one client recorded: per round, the latency of every
// operation in µs and (open loop) how late each was sent.
type samples struct {
	lat, late [rounds][]float64
	// first and last bound each round's activity: when its first
	// operation began and its last one ended, from the window's start.
	first, last       [rounds]time.Duration
	attempted, failed int
	firstErr          error
	acked             []op // acknowledged writes, in order
	writes            bool
	lastDone          time.Time
}

func (s *samples) fail(o op, err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = fmt.Errorf("%s: %w", o.text, err)
	}
}

// measured is one window's outcome.
type measured struct {
	roundLen time.Duration
	clients  []*samples
	// cpu is the process's user+system CPU seconds spent in each round.
	cpu [rounds]float64
	// elapsed is the time from the window's start to the last reply.
	elapsed time.Duration
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// streams builds each client's operation source for w: client 0 is the
// writer when the workload has one, the rest read.
func streams(w *workload, k *kb, seed int64) []func() op {
	out := make([]func() op, clientCount)
	for i := range out {
		pick := rand.New(rand.NewSource(seed*1000 + int64(i) + 1))
		if w.writer && i == 0 {
			out[i] = newWriter(k, pick).next
			continue
		}
		// Readers share the working set: same set seed for each.
		out[i] = w.reads(k, rand.New(rand.NewSource(seed*1000+500)), pick)
	}
	return out
}

// warmUp runs each client's stream untimed so caches fill and lazy
// set-up finishes before the window opens.
func warmUp(clients []*crs.Client, next []func() op, acked *[]op) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	ack := make([][]op, len(clients))
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deadline := time.Now().Add(warmMax)
			for n := 0; n < warmOps && time.Now().Before(deadline); n++ {
				o := next[i]()
				if _, err := send(clients[i], o); err != nil {
					errs[i] = fmt.Errorf("warm-up %s: %w", o.text, err)
					return
				}
				if o.kind != opRetrieve {
					ack[i] = append(ack[i], o)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		*acked = append(*acked, ack[i]...)
	}
	return nil
}

// measure runs w's load for rounds × roundLen and returns every sample.
func measure(w *workload, clients []*crs.Client, next []func() op, seed int64, roundLen time.Duration) *measured {
	m := &measured{roundLen: roundLen}
	window := rounds * roundLen
	var due [][]time.Duration
	if w.open {
		due = arrivals(seed, openRate, window, len(clients))
	}
	for i := range clients {
		m.clients = append(m.clients, &samples{writes: w.writer && i == 0})
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if w.open {
				openLoop(clients[i], next[i], m.clients[i], start, roundLen, due[i])
			} else {
				closedLoop(clients[i], next[i], m.clients[i], start, roundLen)
			}
		}(i)
	}
	// CPU is read at each round boundary from this goroutine.
	prev := cpuSeconds()
	for r := 0; r < rounds; r++ {
		time.Sleep(time.Until(start.Add(time.Duration(r+1) * roundLen)))
		now := cpuSeconds()
		m.cpu[r] = now - prev
		prev = now
	}
	wg.Wait()
	for _, s := range m.clients {
		if d := s.lastDone.Sub(start); d > m.elapsed {
			m.elapsed = d
		}
	}
	return m
}

func closedLoop(c *crs.Client, next func() op, s *samples, start time.Time, roundLen time.Duration) {
	for {
		begin := time.Now()
		r := int(begin.Sub(start) / roundLen)
		if r >= rounds {
			return
		}
		o := next()
		s.attempted++
		_, err := send(c, o)
		done := time.Now()
		s.lastDone = done
		if err != nil {
			s.fail(o, err)
			continue
		}
		s.record(r, begin.Sub(start), done.Sub(start), float64(done.Sub(begin))/1e3)
		if o.kind != opRetrieve {
			s.acked = append(s.acked, o)
		}
	}
}

// arrivals is the open loop's schedule: exactly rate×window send times,
// uniform over the window and sorted — a Poisson process conditioned on
// its count, so the offered rate is exact — dealt round-robin to the
// connections. The same seed gives the same schedule.
func arrivals(seed int64, rate int, window time.Duration, conns int) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed*1000 + 900))
	n := int(float64(rate) * window.Seconds())
	all := make([]time.Duration, n)
	for i := range all {
		all[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := make([][]time.Duration, conns)
	for i, d := range all {
		out[i%conns] = append(out[i%conns], d)
	}
	return out
}

// openLoop sends each request when it is due, or as soon after as the
// connection is free, and times it from when it was due: a stall delays
// the requests queued behind it and their wait is counted. It waits in
// nanosleep(2), not time.Sleep: a Go timer on an idle scheduler fires
// through epoll_wait, whose timeout is whole milliseconds, and arrivals
// on a connection are half a millisecond apart.
func openLoop(c *crs.Client, next func() op, s *samples, start time.Time, roundLen time.Duration, due []time.Duration) {
	for _, d := range due {
		dueAt := start.Add(d)
		// A signal (the runtime preempts with them) cuts a sleep short.
		for wait := time.Until(dueAt); wait > 0; wait = time.Until(dueAt) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the remainder
		}
		r := int(d / roundLen)
		o := next()
		s.attempted++
		sent := time.Now()
		_, err := send(c, o)
		done := time.Now()
		s.lastDone = done
		if err != nil {
			s.fail(o, err)
			continue
		}
		s.record(r, sent.Sub(start), done.Sub(start), float64(done.Sub(dueAt))/1e3)
		s.late[r] = append(s.late[r], float64(sent.Sub(dueAt))/1e3)
	}
}

// record files one completed operation under round r.
func (s *samples) record(r int, begin, done time.Duration, latency float64) {
	if len(s.lat[r]) == 0 {
		s.first[r] = begin
	}
	s.last[r] = done
	s.lat[r] = append(s.lat[r], latency)
}

// class gathers the rounds of the clients that write (or that read):
// every latency, every lateness, and how long each round was active —
// from its first operation's start to its last one's end on any of those
// clients, which is what its rate is taken over.
func (m *measured) class(writes bool) (lat, late [rounds][]float64, active [rounds]time.Duration) {
	for r := 0; r < rounds; r++ {
		var first, last time.Duration
		for _, s := range m.clients {
			if s.writes != writes || len(s.lat[r]) == 0 {
				continue
			}
			if len(lat[r]) == 0 || s.first[r] < first {
				first = s.first[r]
			}
			if s.last[r] > last {
				last = s.last[r]
			}
			lat[r] = append(lat[r], s.lat[r]...)
			late[r] = append(late[r], s.late[r]...)
		}
		active[r] = last - first
	}
	return lat, late, active
}
