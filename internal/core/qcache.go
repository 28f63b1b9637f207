package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/telemetry"
	"clare/internal/term"
)

// queryCache memoises the two query-side encodings a retrieval needs —
// the PIF query image FS2 matches against and the SCW query codeword FS1
// scans with — keyed by the goal's shape. Both encodings depend only on
// the shape (constants by value, variables by first-occurrence position),
// so repeated goals skip the encoder entirely. The cache is shared by all
// boards; entries are immutable after insertion (FS2 only reads the query
// image) and safe to hand to concurrent retrievals.
type queryCache struct {
	mu      sync.RWMutex
	entries map[string]*cachedQuery

	hits   atomic.Int64
	misses atomic.Int64

	// registry handles (nil when uninstrumented; observations no-op).
	hitC  *telemetry.Counter
	missC *telemetry.Counter
	sizeG *telemetry.Gauge
}

type cachedQuery struct {
	pif *pif.Encoded
	scw scw.QueryDescriptor
}

// queryCacheSize bounds the cache (distinct goal shapes).
const queryCacheSize = 1024

// maxQueryKeyLen: goals larger than this are not worth caching (the key
// build would rival the encode).
const maxQueryKeyLen = 1 << 10

// newQueryCache builds an empty cache whose counters land in reg.
func newQueryCache(reg *telemetry.Registry) *queryCache {
	return &queryCache{
		entries: make(map[string]*cachedQuery),
		hitC:    reg.Counter("clare_qcache_hits_total", "query-encoding cache hits", nil),
		missC:   reg.Counter("clare_qcache_misses_total", "query-encoding cache misses", nil),
		sizeG:   reg.Gauge("clare_qcache_entries", "query-encoding cache population", nil),
	}
}

func (c *queryCache) get(key string) *cachedQuery {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
		c.hitC.Inc()
	} else {
		c.misses.Add(1)
		c.missC.Inc()
	}
	return e
}

func (c *queryCache) put(key string, e *cachedQuery) {
	c.mu.Lock()
	if len(c.entries) >= queryCacheSize {
		// Epoch flush: cheap, deterministic, and the working set refills in
		// one round of misses.
		c.entries = make(map[string]*cachedQuery)
	}
	c.entries[key] = e
	n := len(c.entries)
	c.mu.Unlock()
	c.sizeG.Set(float64(n))
}

// QueryCacheStats reports the query-encoding cache's hit/miss counters and
// current size.
type QueryCacheStats struct {
	Hits, Misses int64
	Size         int
}

func (c *queryCache) stats() QueryCacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return QueryCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Size: n}
}

// queryKey canonicalises a goal's shape: constants by value, named
// variables by first-occurrence index (so p(X,Y) and p(A,B) share an
// entry while p(X,X) does not), anonymous variables distinct from named
// ones. ok is false for goals that are uncacheable (non-callable parts)
// or too large to be worth keying.
func queryKey(t term.Term) (key string, ok bool) {
	var b strings.Builder
	seen := make(map[*term.Var]int)
	var walk func(t term.Term) bool
	walk = func(t term.Term) bool {
		if b.Len() > maxQueryKeyLen {
			return false
		}
		switch t := term.Deref(t).(type) {
		case *term.Var:
			if t.Name == "_" {
				b.WriteString("_;")
				return true
			}
			id, have := seen[t]
			if !have {
				id = len(seen)
				seen[t] = id
			}
			fmt.Fprintf(&b, "v%d;", id)
		case term.Atom:
			fmt.Fprintf(&b, "a%d:%s;", len(t), string(t))
		case term.Int:
			fmt.Fprintf(&b, "i%d;", int64(t))
		case term.Float:
			fmt.Fprintf(&b, "f%x;", float64(t))
		case *term.Compound:
			fmt.Fprintf(&b, "c%d:%d:%s(", len(t.Args), len(t.Functor), t.Functor)
			for _, a := range t.Args {
				if !walk(a) {
					return false
				}
			}
			b.WriteString(");")
		default:
			return false
		}
		return true
	}
	if !walk(t) || b.Len() > maxQueryKeyLen {
		return "", false
	}
	return b.String(), true
}
