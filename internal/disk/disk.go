// Package disk models the secondary-storage subsystem that feeds CLARE:
// parameterised disk drives streaming compiled clause files track by
// track, with explicit simulated-time accounting.
//
// The paper's SUN3/160 hosts either a SCSI drive (Micropolis 1325) or a
// faster SMD drive (Fujitsu M2351A, ≈2 MB/s peak, §4); the whole point of
// the FS2 timing analysis is that the filter outruns both. Geometry values
// are nominal catalogue figures for the two drives; the throughput claims
// only depend on the transfer rates the paper quotes.
package disk

import (
	"fmt"
	"time"

	"clare/internal/fault"
)

// Model describes a disk drive.
type Model struct {
	Name string
	// TransferRate is the sustained media transfer rate in bytes/second.
	TransferRate float64
	// TrackBytes is the formatted capacity of one track. One track is the
	// worst-case unit of a single FS2 search call (§3.2).
	TrackBytes int
	// RPM is the spindle speed (rotational latency = half a revolution on
	// average).
	RPM int
	// AvgSeek is the average seek time.
	AvgSeek time.Duration
}

// The two drives named in §4.
var (
	// Micropolis1325 is the SCSI option: a 5.25" 69 MB drive, ≈1 MB/s
	// sustained, 3600 rpm, 28 ms average seek.
	Micropolis1325 = Model{
		Name:         "Micropolis 1325 (SCSI)",
		TransferRate: 1.0e6,
		TrackBytes:   8 * 1024,
		RPM:          3600,
		AvgSeek:      28 * time.Millisecond,
	}
	// FujitsuM2351A is the SMD option ("Eagle"): ≈2 MB/s peak transfer,
	// 3961 rpm, 18 ms average seek, ≈20 KB tracks.
	FujitsuM2351A = Model{
		Name:         "Fujitsu M2351A (SMD)",
		TransferRate: 2.0e6,
		TrackBytes:   20 * 1024,
		RPM:          3961,
		AvgSeek:      18 * time.Millisecond,
	}
)

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.TransferRate <= 0 || m.TrackBytes <= 0 || m.RPM <= 0 {
		return fmt.Errorf("disk: invalid model %+v", m)
	}
	return nil
}

// RotationalLatency is the average rotational delay: half a revolution.
func (m Model) RotationalLatency() time.Duration {
	revolution := time.Duration(float64(time.Minute) / float64(m.RPM))
	return revolution / 2
}

// TransferTime is the time to stream n bytes at the sustained rate.
func (m Model) TransferTime(n int) time.Duration {
	return time.Duration(float64(n) / m.TransferRate * float64(time.Second))
}

// AccessTime is the positioning cost of one random access: average seek
// plus average rotational latency.
func (m Model) AccessTime() time.Duration {
	return m.AvgSeek + m.RotationalLatency()
}

// Tracks returns how many tracks n bytes occupy (ceiling).
func (m Model) Tracks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + m.TrackBytes - 1) / m.TrackBytes
}

// ScanTime is the cost of a sequential scan of n bytes: one positioning
// access, then streaming; track switches are folded into the sustained
// rate.
func (m Model) ScanTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.AccessTime() + m.TransferTime(n)
}

// FetchTime is the cost of fetching k scattered records of recordBytes
// each: positioning per distinct track visited (pessimistically one per
// record, capped by total track count), plus transfer.
func (m Model) FetchTime(k, recordBytes int) time.Duration {
	if k <= 0 {
		return 0
	}
	seeks := k
	if t := m.Tracks(k * recordBytes); t < seeks {
		seeks = t
	}
	return time.Duration(seeks)*m.AccessTime() + m.TransferTime(k*recordBytes)
}

// Stats accumulates simulated disk activity.
type Stats struct {
	BytesRead int64
	Accesses  int
	Elapsed   time.Duration
	// Faults counts injected read faults (bad track / unreadable index)
	// this drive surfaced.
	Faults int
}

// Drive is a stateful disk with accumulated statistics.
type Drive struct {
	Model Model
	Stats Stats

	// flt, when non-nil, injects read faults: Scan/Fetch probe
	// fault.SiteDiskRead (the clause-file stream), IndexScan/Access/
	// Stream probe fault.SiteDiskIndex (the secondary-file stream).
	flt    *fault.Injector
	fltKey string
}

// NewDrive returns a drive of the given model.
func NewDrive(m Model) *Drive { return &Drive{Model: m} }

// SetFaults arms fault injection on the drive. key identifies the drive
// to keyed rules (its board unit's).
func (d *Drive) SetFaults(inj *fault.Injector, key string) {
	d.flt = inj
	d.fltKey = key
}

// probe checks the injector at one read site, counting surfaced faults.
func (d *Drive) probe(site string) error {
	err := d.flt.Probe(site, d.fltKey)
	if err != nil {
		d.Stats.Faults++
	}
	return err
}

// Scan accounts for a sequential scan of n clause-file bytes and returns
// its duration. A fault (injected bad track) aborts the scan: the drive
// burns one positioning access discovering it and delivers nothing.
func (d *Drive) Scan(n int) (time.Duration, error) {
	return d.scan(fault.SiteDiskRead, n)
}

// IndexScan is Scan over the secondary file (the FS1 index stream). It is
// costed identically but probes the disk.index fault site, so chaos
// schedules can make the index unreadable while clause records survive —
// the trigger for the FS1+FS2 → FS2-only degradation.
func (d *Drive) IndexScan(n int) (time.Duration, error) {
	return d.scan(fault.SiteDiskIndex, n)
}

func (d *Drive) scan(site string, n int) (time.Duration, error) {
	if err := d.probe(site); err != nil {
		d.failedAccess()
		return 0, err
	}
	t := d.Model.ScanTime(n)
	d.Stats.BytesRead += int64(n)
	d.Stats.Accesses++
	d.Stats.Elapsed += t
	return t, nil
}

// Access accounts for one positioning access (seek + rotational latency)
// with no transfer — the start of a chunked sequential index stream, so
// it probes the disk.index fault site.
func (d *Drive) Access() (time.Duration, error) {
	if err := d.probe(fault.SiteDiskIndex); err != nil {
		d.failedAccess()
		return 0, err
	}
	t := d.Model.AccessTime()
	d.Stats.Accesses++
	d.Stats.Elapsed += t
	return t, nil
}

// Stream accounts for transferring n sequential index bytes at the
// sustained rate with no positioning — the continuation of a stream
// opened by Access. A chunked scan is one Access plus a Stream per chunk,
// and costs exactly what one Scan of the whole range would.
func (d *Drive) Stream(n int) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	if err := d.probe(fault.SiteDiskIndex); err != nil {
		d.failedAccess()
		return 0, err
	}
	t := d.Model.TransferTime(n)
	d.Stats.BytesRead += int64(n)
	d.Stats.Elapsed += t
	return t, nil
}

// Fetch accounts for k random clause-record reads and returns the
// duration.
func (d *Drive) Fetch(k, recordBytes int) (time.Duration, error) {
	if k > 0 {
		if err := d.probe(fault.SiteDiskRead); err != nil {
			d.failedAccess()
			return 0, err
		}
	}
	t := d.Model.FetchTime(k, recordBytes)
	d.Stats.BytesRead += int64(k * recordBytes)
	d.Stats.Accesses += k
	d.Stats.Elapsed += t
	return t, nil
}

// failedAccess accounts the positioning cost of a read attempt that died
// on a bad track: the head still moved, no bytes were delivered.
func (d *Drive) failedAccess() {
	t := d.Model.AccessTime()
	d.Stats.Accesses++
	d.Stats.Elapsed += t
}
