// Package telemetry is CLARE's observability layer: a lock-cheap metrics
// registry (counters, gauges, fixed-bucket histograms keyed by
// name+labels), a per-retrieval trace recorder that captures one span per
// pipeline stage, and the operational HTTP surface (/metrics in
// Prometheus text format, /trace, /debug/pprof) that crsd mounts on its
// admin listener.
//
// It has one clock: every duration it records — span, flight record,
// histogram — is host time spent by the serving (native) engine. The
// paper's simulated times come from the component timing models and stay
// where they are exact: core's per-retrieval Stats, EXPLAIN's sim.* rows
// and the clarebench ledger.
//
// Design: callers resolve metric handles once (Registry.Counter et al.
// take a family mutex) and then update them with single atomic operations
// on the hot path. Every handle type is nil-safe — a nil *Registry hands
// out nil handles whose methods no-op — so instrumented packages need no
// "is telemetry on?" branches.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is one metric series' label set. The zero value (nil) means an
// unlabelled series.
type Labels map[string]string

// Kind discriminates the metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "kind?"
}

// DurationBuckets are the default histogram bounds (seconds): wide enough
// to cover sub-microsecond host work and multi-second stalls.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative deltas are ignored: counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float value (set or adjusted).
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds in the observed unit (seconds for durations); an implicit +Inf
// bucket catches the tail.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// series is one labelled instance within a family.
type series struct {
	labels   Labels
	rendered string // `k1="v1",k2="v2"`, escaped, sorted by key
	metric   any    // *Counter, *Gauge, or *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64
	series  map[string]*series
	order   []string // insertion order of series keys (stable exports)
}

// Registry holds the metric families. All methods are safe for concurrent
// use, and a nil *Registry is a valid no-op registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter resolves (creating on first use) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.resolve(name, help, KindCounter, nil, labels)
	if m == nil {
		return nil
	}
	return m.(*Counter)
}

// Gauge resolves (creating on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.resolve(name, help, KindGauge, nil, labels)
	if m == nil {
		return nil
	}
	return m.(*Gauge)
}

// Histogram resolves (creating on first use) the histogram name{labels}.
// buckets nil means DurationBuckets. The first resolution of a name fixes
// its buckets; later calls reuse them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	m := r.resolve(name, help, KindHistogram, buckets, labels)
	if m == nil {
		return nil
	}
	return m.(*Histogram)
}

func (r *Registry) resolve(name, help string, kind Kind, buckets []float64, labels Labels) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if kind == KindHistogram && buckets == nil {
			buckets = DurationBuckets
		}
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		// Programmer error (one name, two kinds): hand back a detached
		// metric rather than corrupting the family or panicking a server.
		return detached(kind, buckets)
	}
	key := renderLabels(labels)
	if s, ok := f.series[key]; ok {
		return s.metric
	}
	s := &series{labels: copyLabels(labels), rendered: key, metric: detached(f.kind, f.buckets)}
	f.series[key] = s
	f.order = append(f.order, key)
	return s.metric
}

func detached(kind Kind, buckets []float64) any {
	switch kind {
	case KindCounter:
		return &Counter{}
	case KindGauge:
		return &Gauge{}
	default:
		if buckets == nil {
			buckets = DurationBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
}

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// renderLabels canonicalises a label set into the Prometheus inner form,
// sorted by key with values escaped.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(l[k]))
	}
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	return strings.NewReplacer("\\", "\\\\", "\n", "\\n", "\"", "\\\"").Replace(v)
}

// SeriesValue is one series' current reading, as reported by Gather.
type SeriesValue struct {
	Name   string
	Labels Labels
	Kind   Kind
	// Value is the counter/gauge reading; for histograms it is the sum of
	// observations.
	Value float64
	// Count is the histogram observation count (0 otherwise).
	Count int64
}

// Gather snapshots every series in registration order — the machine-
// readable export tests read registries back through.
func (r *Registry) Gather() []SeriesValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SeriesValue
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			sv := SeriesValue{Name: f.name, Labels: s.labels, Kind: f.kind}
			switch m := s.metric.(type) {
			case *Counter:
				sv.Value = float64(m.Value())
			case *Gauge:
				sv.Value = m.Value()
			case *Histogram:
				sv.Value = m.Sum()
				sv.Count = m.Count()
			}
			out = append(out, sv)
		}
	}
	return out
}
