package disk

import (
	"sync"
	"testing"
	"time"

	"clare/internal/fault"
)

func TestModelsValidate(t *testing.T) {
	if err := Micropolis1325.Validate(); err != nil {
		t.Error(err)
	}
	if err := FujitsuM2351A.Validate(); err != nil {
		t.Error(err)
	}
	if (Model{}).Validate() == nil {
		t.Error("zero model should be invalid")
	}
}

func TestPaperRates(t *testing.T) {
	// §4: the SMD disk peaks at ≈2 MB/s; both disks are slower than the
	// FS2 worst-case filter rate (≈4.25 MB/s).
	if FujitsuM2351A.TransferRate != 2.0e6 {
		t.Errorf("M2351A rate = %g", FujitsuM2351A.TransferRate)
	}
	if Micropolis1325.TransferRate >= FujitsuM2351A.TransferRate {
		t.Error("the SMD drive should be the faster one")
	}
	const fs2WorstRate = 4.25e6
	if FujitsuM2351A.TransferRate >= fs2WorstRate {
		t.Error("paper claim violated: disk would outrun the filter")
	}
}

func TestTransferTime(t *testing.T) {
	// 2 MB at 2 MB/s = 1 s.
	got := FujitsuM2351A.TransferTime(2_000_000)
	if got != time.Second {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if Micropolis1325.TransferTime(0) != 0 {
		t.Error("zero bytes should cost nothing to transfer")
	}
}

func TestRotationalLatency(t *testing.T) {
	// 3600 rpm → 16.67 ms/rev → 8.33 ms average.
	got := Micropolis1325.RotationalLatency()
	if got < 8*time.Millisecond || got > 9*time.Millisecond {
		t.Errorf("rotational latency = %v, want ≈8.3ms", got)
	}
}

func TestTracks(t *testing.T) {
	m := Micropolis1325 // 8 KB tracks
	cases := map[int]int{0: 0, 1: 1, 8192: 1, 8193: 2, 81920: 10}
	for n, want := range cases {
		if got := m.Tracks(n); got != want {
			t.Errorf("Tracks(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestScanVsFetch(t *testing.T) {
	m := FujitsuM2351A
	// A sequential scan of 100 records must beat 100 random fetches.
	scan := m.ScanTime(100 * 256)
	fetch := m.FetchTime(100, 256)
	if scan >= fetch {
		t.Errorf("scan %v should beat scattered fetch %v", scan, fetch)
	}
	// Fetching zero records is free.
	if m.FetchTime(0, 256) != 0 {
		t.Error("zero fetches should cost nothing")
	}
}

func TestFetchSeekCap(t *testing.T) {
	m := Micropolis1325
	// Thousands of tiny records can't seek more than the tracks they
	// span.
	many := m.FetchTime(10000, 4)
	tracks := m.Tracks(10000 * 4)
	maxPositioning := time.Duration(tracks) * m.AccessTime()
	if many > maxPositioning+m.TransferTime(40000)+time.Millisecond {
		t.Errorf("fetch time %v exceeds track-capped positioning %v", many, maxPositioning)
	}
}

func TestDriveAccounting(t *testing.T) {
	d := NewDrive(FujitsuM2351A)
	t1, err := d.Scan(1000)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.Fetch(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.BytesRead != 1300 {
		t.Errorf("BytesRead = %d", d.Stats.BytesRead)
	}
	if d.Stats.Accesses != 4 {
		t.Errorf("Accesses = %d", d.Stats.Accesses)
	}
	if d.Stats.Elapsed != t1+t2 {
		t.Errorf("Elapsed = %v, want %v", d.Stats.Elapsed, t1+t2)
	}
	d.Reset()
	if d.Stats != (Stats{}) {
		t.Error("Reset did not clear stats")
	}
}

func TestDriveFaultInjection(t *testing.T) {
	d := NewDrive(FujitsuM2351A)
	inj := fault.New(1).
		Add(fault.Rule{Site: fault.SiteDiskRead, Nth: 1, Limit: 1}).
		Add(fault.Rule{Site: fault.SiteDiskIndex, Key: "0", Nth: 1, Limit: 1})
	d.SetFaults(inj, "0")

	// First clause read faults and delivers nothing, but the head moved.
	if _, err := d.Scan(1000); !fault.Is(err) {
		t.Fatalf("Scan error = %v, want injected fault", err)
	}
	if d.Stats.BytesRead != 0 || d.Stats.Faults != 1 || d.Stats.Accesses != 1 {
		t.Fatalf("post-fault stats = %+v", d.Stats)
	}
	// The read-site rule is exhausted; the clause stream recovers while
	// the index-site rule is still armed.
	if _, err := d.Scan(1000); err != nil {
		t.Fatalf("Scan after limit: %v", err)
	}
	if _, err := d.IndexScan(64); !fault.Is(err) {
		t.Fatal("IndexScan did not fault under a disk.index rule")
	}
	if _, err := d.IndexScan(64); err != nil {
		t.Fatalf("IndexScan after limit: %v", err)
	}
	if d.Stats.Faults != 2 {
		t.Fatalf("Faults = %d, want 2", d.Stats.Faults)
	}
}

func TestDriveIndexStreamSites(t *testing.T) {
	// Access and Stream carry the secondary-file stream, so a disk.index
	// rule must hit them while disk.read rules must not.
	d := NewDrive(FujitsuM2351A)
	d.SetFaults(fault.New(1).Add(fault.Rule{Site: fault.SiteDiskRead, Nth: 1}), "0")
	if _, err := d.Access(); err != nil {
		t.Fatalf("Access hit by a disk.read rule: %v", err)
	}
	if _, err := d.Stream(100); err != nil {
		t.Fatalf("Stream hit by a disk.read rule: %v", err)
	}
	d2 := NewDrive(FujitsuM2351A)
	d2.SetFaults(fault.New(1).Add(fault.Rule{Site: fault.SiteDiskIndex, Nth: 1}), "0")
	if _, err := d2.Access(); !fault.Is(err) {
		t.Fatal("Access missed by a disk.index rule")
	}
	if _, err := d2.Stream(100); !fault.Is(err) {
		t.Fatal("Stream missed by a disk.index rule")
	}
	// Zero-byte streams never probe (nothing is read).
	if _, err := d2.Stream(0); err != nil {
		t.Fatalf("Stream(0): %v", err)
	}
}

func TestScanTimeMonotone(t *testing.T) {
	m := FujitsuM2351A
	prev := time.Duration(0)
	for _, n := range []int{1, 100, 10_000, 1_000_000} {
		got := m.ScanTime(n)
		if got <= prev {
			t.Errorf("ScanTime(%d) = %v not increasing", n, got)
		}
		prev = got
	}
}

// TestTotalsConcurrentAdd: drives owned by concurrent goroutines fold into
// one Totals without a lock and nothing is lost.
func TestTotalsConcurrentAdd(t *testing.T) {
	var tot Totals
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d := NewDrive(FujitsuM2351A)
				if _, err := d.Scan(1000); err != nil {
					t.Error(err)
				}
				tot.Add(d.Stats)
			}
		}()
	}
	wg.Wait()
	d := NewDrive(FujitsuM2351A)
	if _, err := d.Scan(1000); err != nil {
		t.Fatal(err)
	}
	want := Stats{BytesRead: 800 * d.Stats.BytesRead, Accesses: 800 * d.Stats.Accesses, Elapsed: 800 * d.Stats.Elapsed}
	if got := tot.Stats(); got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
}
