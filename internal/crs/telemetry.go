package crs

import (
	"clare/internal/core"
	"clare/internal/telemetry"
	"clare/internal/wal"
)

// serverMetrics holds the CRS-level registry handles. All handles are
// nil-safe, so a server built over an uninstrumented retriever pays
// nothing. No family is labelled per predicate: that would grow one
// series per predicate of the store; /top answers per-predicate
// questions from the flight ring.
type serverMetrics struct {
	requests map[core.SearchMode]*telemetry.Counter

	sessOpen  *telemetry.Gauge
	sessTotal *telemetry.Counter

	lockWaitRead  *telemetry.Histogram
	lockWaitWrite *telemetry.Histogram

	txBegins  *telemetry.Counter
	txCommits *telemetry.Counter
	txAborts  *telemetry.Counter

	writesAssert  *telemetry.Counter
	writesRetract *telemetry.Counter
	replApplied   *telemetry.Counter

	wireErrs *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{requests: make(map[core.SearchMode]*telemetry.Counter, 4)}
	for _, mode := range []core.SearchMode{core.ModeSoftware, core.ModeFS1, core.ModeFS2, core.ModeFS1FS2} {
		m.requests[mode] = reg.Counter("clare_crs_requests_total",
			"CRS retrievals served per search mode", telemetry.Labels{"mode": mode.String()})
	}
	m.sessOpen = reg.Gauge("clare_crs_sessions_open", "CRS sessions currently open", nil)
	m.sessTotal = reg.Counter("clare_crs_sessions_total", "CRS sessions ever opened", nil)
	m.lockWaitRead = reg.Histogram("clare_crs_lock_wait_seconds",
		"wall time waiting on a predicate lock", nil, telemetry.Labels{"op": "read"})
	m.lockWaitWrite = reg.Histogram("clare_crs_lock_wait_seconds",
		"wall time waiting on a predicate lock", nil, telemetry.Labels{"op": "write"})
	m.txBegins = reg.Counter("clare_crs_transactions_total",
		"CRS transaction operations", telemetry.Labels{"op": "begin"})
	m.txCommits = reg.Counter("clare_crs_transactions_total",
		"CRS transaction operations", telemetry.Labels{"op": "commit"})
	m.txAborts = reg.Counter("clare_crs_transactions_total",
		"CRS transaction operations", telemetry.Labels{"op": "abort"})
	m.writesAssert = reg.Counter("clare_crs_writes_total",
		"clauses written through the durable write path", telemetry.Labels{"op": "assert"})
	m.writesRetract = reg.Counter("clare_crs_writes_total",
		"clauses written through the durable write path", telemetry.Labels{"op": "retract"})
	m.replApplied = reg.Counter("clare_crs_replicated_total",
		"primary-sequenced records applied via replication", nil)
	m.wireErrs = reg.Counter("clare_crs_wire_errors_total",
		"rejections (ERR replies) sent over the wire protocol", nil)
	return m
}

// Snapshot is a consistent view of the server's service counters,
// returned by Server.Snapshot and carried by the STATS wire command.
type Snapshot struct {
	// Served counts completed retrievals per search mode.
	Served map[core.SearchMode]int
	// Sessions is the number of currently open sessions.
	Sessions int
	// QueryCache is the retriever's query-encoding cache state.
	QueryCache core.QueryCacheStats
	// Degraded counts served retrievals that fell down the degradation
	// ladder (any rung); Retries and Faults are the total retry attempts
	// spent and injected faults absorbed across served retrievals.
	Degraded int64
	Retries  int64
	Faults   int64
	// StoreMapped reports whether the retriever's base store image is a
	// read-only file mapping.
	StoreMapped bool
	// WAL is the durable write path's state: enabled says whether a log
	// is attached, Seq/Applied are the log's last and the store's
	// applied sequence numbers (Applied lags Seq only transiently),
	// Replicated counts records applied via replication, and ReadOnly
	// marks a replica.
	WALEnabled bool
	WALSeq     uint64
	WALApplied uint64
	WALStats   wal.LogStats
	Replicated int64
	ReadOnly   bool
	// FlightSize/FlightRecorded mirror the flight recorder ring (0/0
	// when no recorder is attached).
	FlightSize     int
	FlightRecorded uint64
}

// Snapshot captures the server's current service counters.
func (s *Server) Snapshot() Snapshot {
	s.statsMu.Lock()
	degraded, retries, faults := s.degraded, s.retries, s.faults
	s.statsMu.Unlock()
	sn := Snapshot{
		Served:      s.Served(),
		Sessions:    s.Sessions(),
		QueryCache:  s.retriever.QueryCache(),
		Degraded:    degraded,
		Retries:     retries,
		Faults:      faults,
		StoreMapped: s.retriever.StoreMapped(),
		WALApplied:  s.applied.Load(),
		Replicated:  s.replicated.Load(),
		ReadOnly:    s.readOnly.Load(),
	}
	if s.walLog != nil {
		sn.WALEnabled = true
		sn.WALStats = s.walLog.Stats()
		sn.WALSeq = sn.WALStats.LastSeq
	} else {
		sn.WALSeq = sn.WALApplied
	}
	sn.FlightSize = s.flight.Size()
	sn.FlightRecorded = s.flight.Recorded()
	return sn
}

// statsKV flattens a snapshot into the deterministic key/value sequence
// the STATS wire reply carries. Keys contain no spaces; values are
// integers.
type statsKV struct {
	Key   string
	Value int64
}

func (sn Snapshot) lines() []statsKV {
	kv := []statsKV{}
	for _, mode := range []core.SearchMode{core.ModeSoftware, core.ModeFS1, core.ModeFS2, core.ModeFS1FS2} {
		kv = append(kv, statsKV{"served." + mode.String(), int64(sn.Served[mode])})
	}
	kv = append(kv,
		statsKV{"sessions", int64(sn.Sessions)},
		statsKV{"qcache.hits", sn.QueryCache.Hits},
		statsKV{"qcache.misses", sn.QueryCache.Misses},
		statsKV{"qcache.entries", int64(sn.QueryCache.Size)},
		statsKV{"degraded", sn.Degraded},
		statsKV{"retries", sn.Retries},
		statsKV{"faults", sn.Faults},
		statsKV{"store.mapped", b2i(sn.StoreMapped)},
	)
	kv = append(kv,
		statsKV{"wal.enabled", b2i(sn.WALEnabled)},
		statsKV{"wal.seq", int64(sn.WALSeq)},
		statsKV{"wal.applied", int64(sn.WALApplied)},
		statsKV{"wal.segments", int64(sn.WALStats.Segments)},
		statsKV{"wal.appends", sn.WALStats.Appends},
		statsKV{"wal.fsyncs", sn.WALStats.Fsyncs},
		statsKV{"wal.faults", sn.WALStats.Faults},
		statsKV{"wal.replicated", sn.Replicated},
		statsKV{"wal.readonly", b2i(sn.ReadOnly)},
	)
	kv = append(kv,
		statsKV{"flight.size", int64(sn.FlightSize)},
		statsKV{"flight.recorded", int64(sn.FlightRecorded)},
	)
	return kv
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
