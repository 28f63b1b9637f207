// Package fault provides deterministic, seedable fault injection for the
// simulated CLARE hardware. The paper's engine is a physical pipeline —
// a disk drive, a VMEbus, an FS2 filter board — and a production
// deployment must keep serving (degraded, observably) when any of them
// fails. This package is the failure generator the degradation machinery
// in internal/core is tested against.
//
// An Injector holds a set of Rules, each arming one injection site
// (optionally narrowed to one key — the simulated board unit's "0" or a
// predicate indicator) with a probability-per-probe, an every-Nth-call
// trigger, or both, and an optional total fault budget. Components carry
// probe calls at their hardware operations; a nil *Injector never fires,
// so the probes cost one nil check in production configurations.
//
// All randomness comes from the injector's seed, so a single-goroutine
// fault schedule is exactly reproducible; concurrent probes serialise on
// the injector mutex and stay seedable, though interleaving then depends
// on goroutine scheduling.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clare/internal/telemetry"
)

// Standard injection sites. Sites are plain strings so subsystems can add
// their own without touching this package.
const (
	// SiteDiskRead is a clause-record read off the primary clause file:
	// a bad track or an unrecoverable ECC error under the data stream.
	SiteDiskRead = "disk.read"
	// SiteDiskIndex is a secondary-file (FS1 index) read: the paper's
	// index stream becoming unreadable forces the CRS to abandon FS1
	// filtering and fall back to a full FS2 scan.
	SiteDiskIndex = "disk.index"
	// SiteBus is a VMEbus control-register write that times out: the
	// board stops acknowledging the host.
	SiteBus = "vme.bus"
	// SiteFS2 is an FS2 board fault raised during a search call (a TUE
	// microprogram trap or parity error mid-stream).
	SiteFS2 = "fs2.match"
	// SiteRetrieve is a whole-retrieval fault probed by the CRS itself,
	// keyed by predicate indicator — the hook for predicate-targeted
	// chaos schedules.
	SiteRetrieve = "core.retrieve"
	// SiteWALAppend is a write-ahead-log frame write failing (bad
	// sector under the log file); the log absorbs it with a probe-free
	// retry.
	SiteWALAppend = "wal.append"
	// SiteWALFsync is an fsync of the log failing; the flush is skipped
	// (durability degrades for one policy window) and counted.
	SiteWALFsync = "wal.fsync"
	// SiteWALShip is a primary→replica log-shipping round failing;
	// replication lag grows until the replica trips the staleness bound,
	// like a sick board leaving the rotation.
	SiteWALShip = "wal.ship"
)

// IsKnownSite reports whether site is one of the standard injection
// sites above. Sites are open-ended by design, so an unknown site is
// not an error — but a tool accepting -fault specs can warn, since an
// unknown site usually means a typo that would silently never fire.
func IsKnownSite(site string) bool {
	switch site {
	case SiteDiskRead, SiteDiskIndex, SiteBus, SiteFS2, SiteRetrieve,
		SiteWALAppend, SiteWALFsync, SiteWALShip:
		return true
	}
	return false
}

// ErrInjected is the sentinel every injected fault matches via errors.Is.
var ErrInjected = errors.New("fault: injected")

// Error is one injected fault, carrying the site and key it fired at.
type Error struct {
	Site string
	Key  string
}

func (e *Error) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("fault: injected %s fault", e.Site)
	}
	return fmt.Sprintf("fault: injected %s fault (key %s)", e.Site, e.Key)
}

// Is makes errors.Is(err, ErrInjected) match any injected fault.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Is reports whether err is (or wraps) an injected fault.
func Is(err error) bool { return errors.Is(err, ErrInjected) }

// SiteOf returns the injection site of an injected fault ("" when err is
// not one) — the dispatcher the degradation ladder switches on.
func SiteOf(err error) string {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Site
	}
	return ""
}

// Rule arms one injection site.
type Rule struct {
	// Site is the injection point ("" matches every site).
	Site string
	// Key narrows the rule to one probe key — the simulated board unit's
	// "0" or a predicate indicator ("parent/2"). "" matches every key.
	Key string
	// Probability is the chance each matching probe fires, in [0, 1].
	Probability float64
	// Nth fires every Nth matching probe (0 disables the trigger). A rule
	// may combine Nth and Probability; either trigger fires it.
	Nth uint64
	// Limit caps the total faults this rule injects (0 = unlimited).
	Limit uint64
	// Delay turns the rule into a pure-latency injection: a firing probe
	// sleeps for Delay and returns no error, modelling a slow spindle or
	// a saturated bus rather than a broken one. Delay rules count in
	// Delayed(), not Injected().
	Delay time.Duration
}

// ruleState pairs a rule with its probe/fire counters.
type ruleState struct {
	Rule
	probes uint64
	fired  uint64
}

// Injector evaluates rules at component probes. All methods are safe for
// concurrent use, and a nil *Injector is a valid never-firing injector.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*ruleState
	injected atomic.Int64
	delayed  atomic.Int64

	// reg/metrics: per-site fault counters, resolved lazily (sites are
	// open-ended).
	reg   *telemetry.Registry
	met   map[string]*telemetry.Counter
	metMu sync.Mutex
}

// New returns an injector with no rules, seeded for reproducible
// schedules.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), met: make(map[string]*telemetry.Counter)}
}

// Add arms a rule and returns the injector (chainable).
func (i *Injector) Add(r Rule) *Injector {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	i.rules = append(i.rules, &ruleState{Rule: r})
	i.mu.Unlock()
	return i
}

// Instrument wires the injector to a metrics registry: injected faults
// land in clare_faults_injected_total{site=...}.
func (i *Injector) Instrument(reg *telemetry.Registry) {
	if i == nil {
		return
	}
	i.metMu.Lock()
	i.reg = reg
	i.metMu.Unlock()
}

func (i *Injector) siteCounter(site string) *telemetry.Counter {
	i.metMu.Lock()
	defer i.metMu.Unlock()
	if i.reg == nil {
		return nil
	}
	c, ok := i.met[site]
	if !ok {
		c = i.reg.Counter("clare_faults_injected_total", "hardware faults injected per site",
			telemetry.Labels{"site": site})
		i.met[site] = c
	}
	return c
}

// Keys lists the keys of the rules that name site, "" for an unkeyed
// one. A rule with an empty site matches every site but names none.
func (i *Injector) Keys(site string) []string {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var keys []string
	for _, rs := range i.rules {
		if rs.Site == site {
			keys = append(keys, rs.Key)
		}
	}
	return keys
}

// Probe evaluates the armed rules at one injection point. It returns nil
// when no fault fires, or an *Error naming the site. key identifies the
// probing component instance (the board unit) or subject (predicate).
func (i *Injector) Probe(site, key string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	fired := false
	var delay time.Duration
	for _, rs := range i.rules {
		if rs.Site != "" && rs.Site != site {
			continue
		}
		if rs.Key != "" && rs.Key != key {
			continue
		}
		rs.probes++
		if rs.Limit > 0 && rs.fired >= rs.Limit {
			continue
		}
		if (rs.Nth > 0 && rs.probes%rs.Nth == 0) ||
			(rs.Probability > 0 && i.rng.Float64() < rs.Probability) {
			rs.fired++
			if rs.Delay > 0 {
				delay = rs.Delay
				continue // latency stacks with (and never masks) a real fault
			}
			fired = true
			break
		}
	}
	i.mu.Unlock()
	if delay > 0 {
		// The sleep happens outside the mutex so a slow probe does not
		// serialise every other site behind it.
		i.delayed.Add(1)
		time.Sleep(delay)
	}
	if !fired {
		return nil
	}
	i.injected.Add(1)
	i.siteCounter(site).Inc()
	return &Error{Site: site, Key: key}
}

// Injected reports the total faults fired so far.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	return i.injected.Load()
}

// Delayed reports the total pure-latency injections fired so far.
func (i *Injector) Delayed() int64 {
	if i == nil {
		return 0
	}
	return i.delayed.Load()
}

// ParseRule parses the CLI form of a rule, used by the daemons' -fault
// flags:
//
//	site[@key]=P        probability per probe, e.g. disk.read=0.05
//	site[@key]=1/N      every Nth probe, e.g. fs2.match@2=1/3
//
// Optional comma-separated suffixes: ",limit=L" caps the rule's total
// faults, and ",delay=D" (a Go duration, e.g. 50ms) makes the rule
// inject pure latency — the probe sleeps D and succeeds — instead of an
// error.
func ParseRule(spec string) (Rule, error) {
	var r Rule
	parts := strings.Split(spec, ",")
	body, opts := parts[0], parts[1:]
	lhs, rhs, ok := strings.Cut(body, "=")
	if !ok {
		return r, fmt.Errorf("fault: rule %q: want site[@key]=P or site[@key]=1/N", spec)
	}
	var keyed bool
	r.Site, r.Key, keyed = strings.Cut(lhs, "@")
	if r.Site == "" {
		return r, fmt.Errorf("fault: rule %q: empty site", spec)
	}
	if keyed && r.Key == "" {
		return r, fmt.Errorf("fault: rule %q: empty key after @ (drop the @ to match every key)", spec)
	}
	if num, den, isNth := strings.Cut(rhs, "/"); isNth {
		if num != "1" {
			return r, fmt.Errorf("fault: rule %q: nth trigger must be 1/N", spec)
		}
		n, err := strconv.ParseUint(den, 10, 64)
		if err != nil || n == 0 {
			return r, fmt.Errorf("fault: rule %q: bad N", spec)
		}
		r.Nth = n
	} else {
		p, err := strconv.ParseFloat(rhs, 64)
		if err != nil || p < 0 || p > 1 {
			return r, fmt.Errorf("fault: rule %q: probability must be in [0,1]", spec)
		}
		r.Probability = p
	}
	for _, opt := range opts {
		k, v, _ := strings.Cut(opt, "=")
		switch k {
		case "limit":
			l, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return r, fmt.Errorf("fault: rule %q: bad limit", spec)
			}
			r.Limit = l
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return r, fmt.Errorf("fault: rule %q: bad delay (want a positive duration like 50ms)", spec)
			}
			r.Delay = d
		default:
			return r, fmt.Errorf("fault: rule %q: unknown option %q", spec, k)
		}
	}
	return r, nil
}
