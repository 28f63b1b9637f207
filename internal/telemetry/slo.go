package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLO is one service-level objective: a P99 latency bound and/or an
// error-rate bound, parsed from the daemons' `-slo p99=Xms,err=Y%`
// flag. The implicit latency error budget is 1% (that is what "p99"
// means); the error budget is Y/100.
type SLO struct {
	P99     time.Duration // 0 = no latency objective
	ErrRate float64       // fraction (0.01 for "1%"); 0 = no error objective
}

// ParseSLO reads a `-slo` spec: comma-separated `p99=<dur>` and
// `err=<pct>%` clauses, e.g. "p99=5ms,err=0.1%". Either clause may be
// omitted; an empty spec is an error (use no flag for no SLO).
func ParseSLO(spec string) (SLO, error) {
	var s SLO
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, fmt.Errorf("slo: empty spec")
	}
	for _, clause := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return s, fmt.Errorf("slo: clause %q is not key=value", clause)
		}
		switch k {
		case "p99":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return s, fmt.Errorf("slo: bad p99 duration %q", v)
			}
			s.P99 = d
		case "err":
			pct, ok := strings.CutSuffix(v, "%")
			if !ok {
				return s, fmt.Errorf("slo: err wants a percentage, got %q", v)
			}
			var f float64
			if _, err := fmt.Sscanf(pct, "%g", &f); err != nil || f <= 0 || f >= 100 {
				return s, fmt.Errorf("slo: bad err percentage %q", v)
			}
			s.ErrRate = f / 100
		default:
			return s, fmt.Errorf("slo: unknown clause %q", k)
		}
	}
	if s.P99 == 0 && s.ErrRate == 0 {
		return s, fmt.Errorf("slo: spec %q sets no objective", spec)
	}
	return s, nil
}

// String renders the spec back in flag syntax.
func (s SLO) String() string {
	var parts []string
	if s.P99 > 0 {
		parts = append(parts, "p99="+s.P99.String())
	}
	if s.ErrRate > 0 {
		parts = append(parts, fmt.Sprintf("err=%g%%", s.ErrRate*100))
	}
	return strings.Join(parts, ",")
}

// Multi-window burn-rate windows: the short window catches fast burns
// (page now), the long window catches slow leaks (ticket). Sizes follow
// the usual 1:10 ratio.
const (
	sloShortWindow = time.Minute
	sloLongWindow  = 10 * time.Minute
	sloBuckets     = 20 // per window ring; granularity = window/buckets
)

// sloBucket is one time slice of observation counts.
type sloBucket struct {
	epoch    int64 // bucket index since Unix zero; stale slices are reset lazily
	requests int64
	slow     int64
	errors   int64
}

// sloWindow is a bucketed sliding window of request/slow/error counts.
type sloWindow struct {
	width   time.Duration // one bucket's span
	buckets [sloBuckets]sloBucket
}

func newSLOWindow(span time.Duration) *sloWindow {
	return &sloWindow{width: span / sloBuckets}
}

func (w *sloWindow) observe(now time.Time, slow, isErr bool) {
	b := w.bucket(now)
	b.requests++
	if slow {
		b.slow++
	}
	if isErr {
		b.errors++
	}
}

func (w *sloWindow) bucket(now time.Time) *sloBucket {
	epoch := now.UnixNano() / int64(w.width)
	b := &w.buckets[epoch%sloBuckets]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	return b
}

// totals sums the live buckets (those within the window of now).
func (w *sloWindow) totals(now time.Time) (requests, slow, errors int64) {
	epoch := now.UnixNano() / int64(w.width)
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch > epoch-sloBuckets && b.epoch <= epoch {
			requests += b.requests
			slow += b.slow
			errors += b.errors
		}
	}
	return
}

// BurnRate converts window totals into a burn rate against slo: the
// fraction of the error budget consumed per unit of budgeted fraction. A
// burn of 1.0 means the service is exactly spending its budget; 10 means
// it will exhaust a month's budget in ~3 days.
// Exported so the cluster router can recompute a cluster-wide burn from
// summed per-backend window counts (summing burn rates would weight a
// near-idle backend the same as a loaded one; summing the counts first
// weights each backend by its own traffic).
func BurnRate(slo SLO, requests, slow, errors int64) float64 {
	if requests == 0 {
		return 0
	}
	var burn float64
	if slo.P99 > 0 {
		// The p99 objective implies a 1% slow-request budget.
		burn = float64(slow) / float64(requests) / 0.01
	}
	if slo.ErrRate > 0 {
		if eb := float64(errors) / float64(requests) / slo.ErrRate; eb > burn {
			burn = eb
		}
	}
	return burn
}

// SLOTracker measures one process's compliance with an SLO over short
// and long sliding windows, per-service and per-key (predicate). All
// methods are nil-safe. The breach callback fires (throttled) when the
// short-window burn rate crosses the breach threshold — the flight
// recorder snapshots on it.
type SLOTracker struct {
	slo SLO
	now func() time.Time

	mu       sync.Mutex
	short    *sloWindow
	long     *sloWindow
	perKey   map[string]*sloWindow // short-window only: worst offenders
	requests int64
	slow     int64
	errors   int64
	breaches int64
	breached bool // short burn currently >= threshold

	// OnBreach, when set, is called (outside the lock) each time the
	// short-window burn crosses breachBurn from below, at most once per
	// breachCooldown.
	OnBreach   func(burn float64)
	lastBreach time.Time

	// Prometheus handles (nil-safe; see Instrument).
	gShort, gLong           *Gauge
	cReq, cSlow, cErr, cBrc *Counter
}

const (
	// breachBurn is the short-window burn rate considered a breach: the
	// classic fast-burn page threshold for a 1m window.
	breachBurn = 14.4
	// breachCooldown throttles OnBreach so a sustained breach does not
	// snapshot the flight ring in a loop.
	breachCooldown = time.Minute
)

// NewSLOTracker builds a tracker for the given objective.
func NewSLOTracker(slo SLO) *SLOTracker {
	return &SLOTracker{
		slo:    slo,
		now:    time.Now,
		short:  newSLOWindow(sloShortWindow),
		long:   newSLOWindow(sloLongWindow),
		perKey: make(map[string]*sloWindow),
	}
}

// Instrument wires the tracker to a metrics registry: observations land
// in clare_slo_requests_total / clare_slo_slow_total /
// clare_slo_errors_total, breaches in clare_slo_breaches_total, and the
// live burn rates in clare_slo_burn_rate{window=short|long}.
func (t *SLOTracker) Instrument(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.gShort = reg.Gauge("clare_slo_burn_rate", "SLO error-budget burn rate per sliding window",
		Labels{"window": "short"})
	t.gLong = reg.Gauge("clare_slo_burn_rate", "SLO error-budget burn rate per sliding window",
		Labels{"window": "long"})
	t.cReq = reg.Counter("clare_slo_requests_total", "requests observed against the SLO", nil)
	t.cSlow = reg.Counter("clare_slo_slow_total", "requests slower than the SLO latency objective", nil)
	t.cErr = reg.Counter("clare_slo_errors_total", "failed requests observed against the SLO", nil)
	t.cBrc = reg.Counter("clare_slo_breaches_total", "short-window fast-burn breaches", nil)
}

// SLO reports the tracked objective (zero value on a nil tracker).
func (t *SLOTracker) SLO() SLO {
	if t == nil {
		return SLO{}
	}
	return t.slo
}

// Observe records one request outcome under the given key (predicate
// indicator). d is the wall latency; isErr marks a failed request.
func (t *SLOTracker) Observe(key string, d time.Duration, isErr bool) {
	if t == nil {
		return
	}
	slow := t.slo.P99 > 0 && d > t.slo.P99
	now := t.now()

	t.mu.Lock()
	t.requests++
	if slow {
		t.slow++
	}
	if isErr {
		t.errors++
	}
	t.short.observe(now, slow, isErr)
	t.long.observe(now, slow, isErr)
	if key != "" {
		kw := t.perKey[key]
		if kw == nil {
			kw = newSLOWindow(sloShortWindow)
			t.perKey[key] = kw
		}
		kw.observe(now, slow, isErr)
	}
	var fire func(float64)
	req, sl, er := t.short.totals(now)
	burn := BurnRate(t.slo, req, sl, er)
	if burn >= breachBurn && req >= 10 {
		if !t.breached {
			t.breached = true
			t.breaches++
			t.cBrc.Inc()
			if t.OnBreach != nil && now.Sub(t.lastBreach) >= breachCooldown {
				t.lastBreach = now
				fire = t.OnBreach
			}
		}
	} else {
		t.breached = false
	}
	t.gShort.Set(burn)
	if t.gLong != nil {
		lreq, lsl, ler := t.long.totals(now)
		t.gLong.Set(BurnRate(t.slo, lreq, lsl, ler))
	}
	t.cReq.Inc()
	if slow {
		t.cSlow.Inc()
	}
	if isErr {
		t.cErr.Inc()
	}
	t.mu.Unlock()

	if fire != nil {
		fire(burn)
	}
}

// SLOStatus is one Snapshot: the objective, lifetime counters, and both
// windows' totals and burn rates.
type SLOStatus struct {
	SLO          string          `json:"slo"`
	P99Millis    float64         `json:"p99_ms,omitempty"`
	ErrRate      float64         `json:"err_rate,omitempty"`
	Requests     int64           `json:"requests"`
	Slow         int64           `json:"slow"`
	Errors       int64           `json:"errors"`
	Breaches     int64           `json:"breaches"`
	BreachActive bool            `json:"breach_active"`
	Short        SLOWindowStatus `json:"short"`
	Long         SLOWindowStatus `json:"long"`
	PerKey       []SLOKeyStatus  `json:"per_key,omitempty"`
}

// SLOWindowStatus is one window's live totals and burn rate.
type SLOWindowStatus struct {
	Window   string  `json:"window"`
	Requests int64   `json:"requests"`
	Slow     int64   `json:"slow"`
	Errors   int64   `json:"errors"`
	Burn     float64 `json:"burn"`
}

// SLOKeyStatus is one key's short-window burn, for the /slo endpoint's
// worst-offender list.
type SLOKeyStatus struct {
	Key      string  `json:"key"`
	Requests int64   `json:"requests"`
	Slow     int64   `json:"slow"`
	Errors   int64   `json:"errors"`
	Burn     float64 `json:"burn"`
}

// Status reports the tracker's current state. Per-key entries are
// sorted by burn rate descending, then key, and only keys with live
// short-window traffic appear.
func (t *SLOTracker) Status() SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sreq, sslow, serr := t.short.totals(now)
	lreq, lslow, lerr := t.long.totals(now)
	st := SLOStatus{
		SLO:          t.slo.String(),
		P99Millis:    float64(t.slo.P99) / float64(time.Millisecond),
		ErrRate:      t.slo.ErrRate,
		Requests:     t.requests,
		Slow:         t.slow,
		Errors:       t.errors,
		Breaches:     t.breaches,
		BreachActive: t.breached,
		Short: SLOWindowStatus{
			Window: sloShortWindow.String(), Requests: sreq, Slow: sslow, Errors: serr,
			Burn: BurnRate(t.slo, sreq, sslow, serr),
		},
		Long: SLOWindowStatus{
			Window: sloLongWindow.String(), Requests: lreq, Slow: lslow, Errors: lerr,
			Burn: BurnRate(t.slo, lreq, lslow, lerr),
		},
	}
	for key, w := range t.perKey {
		req, slow, errs := w.totals(now)
		if req == 0 {
			continue
		}
		st.PerKey = append(st.PerKey, SLOKeyStatus{
			Key: key, Requests: req, Slow: slow, Errors: errs,
			Burn: BurnRate(t.slo, req, slow, errs),
		})
	}
	sort.Slice(st.PerKey, func(i, j int) bool {
		if st.PerKey[i].Burn != st.PerKey[j].Burn {
			return st.PerKey[i].Burn > st.PerKey[j].Burn
		}
		return st.PerKey[i].Key < st.PerKey[j].Key
	})
	return st
}

// WriteJSON renders Status as one indented JSON document — the /slo
// admin endpoint body.
func (t *SLOTracker) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Status())
}
