package wal

import (
	"sync"
	"time"

	"clare/internal/fault"
	"clare/internal/telemetry"
)

// Source reads a suffix of the primary's log: up to max records with
// seq >= from, plus the log's current last seq (so the shipper learns
// about writes it was not notified of). (*Log).Suffix satisfies it
// directly; the cluster router wraps a SYNC round-trip in one.
type Source func(from uint64, max int) ([]Record, uint64, error)

// Sink is one replica as the shipper sees it. Bootstrap reports the
// replica's applied seq so shipping resumes where the replica actually
// is (not where the shipper last saw it — the replica may have
// restarted and recovered from its own log). Apply delivers one record
// and returns the replica's applied seq afterwards; that reply is
// authoritative: a dup (seq <= applied) acks without re-applying, a
// gap leaves applied short so the shipper rewinds.
type Sink interface {
	Bootstrap() (uint64, error)
	Apply(Record) (uint64, error)
}

// ShipperConfig parameterises a Shipper.
type ShipperConfig struct {
	// Interval is the idle ship period (default 500ms). Notify wakes
	// the loop early, so the interval only bounds how stale a replica
	// gets when notifications are lost.
	Interval time.Duration
	// Batch caps records fetched per round (default 256).
	Batch int
	// Faults, when non-nil, probes wal.ship before each push round.
	Faults *fault.Injector
	// Metrics, when non-nil, receives clare_wal_shipped_total and the
	// lag gauge, labelled with Name.
	Metrics *telemetry.Registry
	// Name labels the shipper's metric series (e.g. the shard id).
	Name string
	// OnLag, when non-nil, is called after every round with the sink's
	// applied seq and the primary's last seq — the hook the cluster
	// layer uses to trip stale replicas.
	OnLag func(applied, last uint64)
}

// Shipper streams one log to one sink: a background loop that wakes on
// Notify (or every Interval) and pushes the suffix the sink is missing.
// An injected wal.ship fault skips the round — lag grows, the replica
// eventually trips the staleness bound, and the next clean round
// catches it back up; a failed Apply or Bootstrap likewise just ends
// the round (the sink may be down; the next round retries from a fresh
// Bootstrap).
type Shipper struct {
	src  Source
	sink Sink
	cfg  ShipperConfig

	mu      sync.Mutex
	applied uint64
	booted  bool
	target  uint64
	faults  int64
	shipped int64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	metShipped *telemetry.Counter
	metLag     *telemetry.Gauge
	metFaults  *telemetry.Counter
}

// NewShipper builds a shipper; call Run to start it.
func NewShipper(src Source, sink Sink, cfg ShipperConfig) *Shipper {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	labels := telemetry.Labels{"target": cfg.Name}
	return &Shipper{
		src:  src,
		sink: sink,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		metShipped: cfg.Metrics.Counter("clare_wal_shipped_total",
			"records shipped primary to replica", labels),
		metLag: cfg.Metrics.Gauge("clare_wal_replica_lag",
			"records the replica trails the primary by", labels),
		metFaults: cfg.Metrics.Counter("clare_wal_faults_total",
			"injected wal faults absorbed by the shipper", labels),
	}
}

// Run starts the ship loop; stop it with Close.
func (s *Shipper) Run() {
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			s.round()
			select {
			case <-s.stop:
				return
			case <-s.wake:
			case <-t.C:
			}
		}
	}()
}

// Notify tells the shipper the primary's log reached seq; the loop
// wakes if idle.
func (s *Shipper) Notify(seq uint64) {
	s.mu.Lock()
	if seq > s.target {
		s.target = seq
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Applied reports the sink's last acknowledged seq.
func (s *Shipper) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Shipped reports the total records pushed and acknowledged.
func (s *Shipper) Shipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}

// Faults reports the injected wal.ship faults absorbed.
func (s *Shipper) Faults() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// CatchUp runs ship rounds synchronously until the sink has every
// record the source holds (or a round stops making progress). Tests
// and the cluster layer's startup path use it; the background loop
// calls the same round.
func (s *Shipper) CatchUp() {
	for s.round() {
	}
}

// round ships one batch. It reports whether another round would make
// progress (more records are known to be pending).
func (s *Shipper) round() bool {
	if err := s.cfg.Faults.Probe(fault.SiteWALShip, s.cfg.Name); err != nil {
		s.mu.Lock()
		s.faults++
		s.mu.Unlock()
		s.metFaults.Inc()
		return false
	}
	s.mu.Lock()
	booted := s.booted
	s.mu.Unlock()
	if !booted {
		applied, err := s.sink.Bootstrap()
		if err != nil {
			return false
		}
		s.mu.Lock()
		s.applied, s.booted = applied, true
		s.mu.Unlock()
	}
	s.mu.Lock()
	from := s.applied + 1
	s.mu.Unlock()
	recs, last, err := s.src(from, s.cfg.Batch)
	if err != nil {
		return false
	}
	shipped := 0
	var applied uint64
	s.mu.Lock()
	applied = s.applied
	s.mu.Unlock()
	for _, rec := range recs {
		got, err := s.sink.Apply(rec)
		if err != nil {
			// The sink is unreachable or refused the record: force a
			// fresh Bootstrap next round rather than guessing its state.
			s.mu.Lock()
			s.booted = false
			s.mu.Unlock()
			return false
		}
		if got < applied {
			// The sink went backwards (restarted and lost unsynced tail):
			// rewind to its authoritative position.
			s.mu.Lock()
			s.applied, applied = got, got
			s.mu.Unlock()
			s.metLag.Set(float64(last - got))
			return true
		}
		applied = got
		if got >= rec.Seq {
			shipped++
		}
		if got < rec.Seq {
			// Gap at the sink: stop the batch, next round refetches from
			// its reply.
			break
		}
	}
	s.mu.Lock()
	s.applied = applied
	if last > s.target {
		s.target = last
	}
	target := s.target
	s.shipped += int64(shipped)
	s.mu.Unlock()
	s.metShipped.Add(int64(shipped))
	lag := uint64(0)
	if target > applied {
		lag = target - applied
	}
	s.metLag.Set(float64(lag))
	if s.cfg.OnLag != nil {
		s.cfg.OnLag(applied, target)
	}
	return lag > 0 && shipped > 0
}

// Close stops the ship loop.
func (s *Shipper) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	close(s.stop)
	<-s.done
}
