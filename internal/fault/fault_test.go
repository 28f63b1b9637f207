package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"clare/internal/telemetry"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var inj *Injector
	for i := 0; i < 100; i++ {
		if err := inj.Probe(SiteDiskRead, "0"); err != nil {
			t.Fatalf("nil injector fired: %v", err)
		}
	}
	if inj.Injected() != 0 || inj.Arms(SiteDiskRead) {
		t.Fatalf("nil injector counted faults or arms a site")
	}
	inj.Add(Rule{Site: SiteDiskRead, Probability: 1})
	inj.Instrument(telemetry.NewRegistry())
}

func TestNthTrigger(t *testing.T) {
	inj := New(1).Add(Rule{Site: SiteFS2, Nth: 3})
	var fired []int
	for i := 1; i <= 9; i++ {
		if inj.Probe(SiteFS2, "0") != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("Nth=3 fired at %v, want %v", fired, want)
	}
}

func TestProbabilityDeterministicAndBounded(t *testing.T) {
	run := func() []int {
		inj := New(42).Add(Rule{Site: SiteDiskRead, Probability: 0.3})
		var fired []int
		for i := 0; i < 200; i++ {
			if inj.Probe(SiteDiskRead, "0") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times", len(a))
	}
}

func TestKeyTargeting(t *testing.T) {
	inj := New(7).Add(Rule{Site: SiteFS2, Key: "2", Probability: 1})
	if err := inj.Probe(SiteFS2, "0"); err != nil {
		t.Fatalf("slot 0 faulted under a slot-2 rule: %v", err)
	}
	err := inj.Probe(SiteFS2, "2")
	if err == nil {
		t.Fatal("slot 2 did not fault")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != SiteFS2 || fe.Key != "2" {
		t.Fatalf("bad fault error: %#v", err)
	}
	if !Is(err) || !errors.Is(err, ErrInjected) {
		t.Fatalf("fault error does not match ErrInjected")
	}
	if SiteOf(err) != SiteFS2 {
		t.Fatalf("SiteOf = %q", SiteOf(err))
	}
	if SiteOf(errors.New("other")) != "" {
		t.Fatal("SiteOf matched a non-fault error")
	}
}

func TestLimit(t *testing.T) {
	inj := New(1).Add(Rule{Site: SiteBus, Probability: 1, Limit: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if inj.Probe(SiteBus, "0") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("limit=2 fired %d times", n)
	}
	if inj.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", inj.Injected())
	}
}

func TestInstrumentCountsPerSite(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := New(1).Add(Rule{Probability: 1, Limit: 3})
	inj.Instrument(reg)
	inj.Probe(SiteDiskRead, "0")
	inj.Probe(SiteDiskRead, "0")
	inj.Probe(SiteFS2, "1")
	bySite := map[string]float64{}
	for _, sv := range reg.Gather() {
		if sv.Name == "clare_faults_injected_total" {
			bySite[sv.Labels["site"]] = sv.Value
		}
	}
	if bySite[SiteDiskRead] != 2 || bySite[SiteFS2] != 1 {
		t.Fatalf("per-site counters = %v, want disk.read=2 fs2.match=1", bySite)
	}
}

func TestConcurrentProbes(t *testing.T) {
	inj := New(9).Add(Rule{Probability: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				inj.Probe(SiteDiskRead, "0")
			}
		}()
	}
	wg.Wait()
	n := inj.Injected()
	if n == 0 || n == 4000 {
		t.Fatalf("p=0.5 over 4000 probes fired %d times", n)
	}
}

func TestParseRule(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
		bad  bool
	}{
		{spec: "disk.read=0.05", want: Rule{Site: "disk.read", Probability: 0.05}},
		{spec: "fs2.match@2=1/3", want: Rule{Site: "fs2.match", Key: "2", Nth: 3}},
		{spec: "vme.bus=1,limit=4", want: Rule{Site: "vme.bus", Probability: 1, Limit: 4}},
		{spec: "core.retrieve@parent/2=0.5", want: Rule{Site: "core.retrieve", Key: "parent/2", Probability: 0.5}},
		{spec: "nonsense", bad: true},
		{spec: "=0.5", bad: true},
		{spec: "disk.read=2", bad: true},
		{spec: "disk.read=2/3", bad: true},
		{spec: "disk.read=1/0", bad: true},
		{spec: "disk.read=0.5,limit=x", bad: true},
		{spec: "disk.read=0.5,cap=3", bad: true},
		{spec: "", bad: true},
		{spec: "disk.read", bad: true},
		{spec: "disk.read=", bad: true},
		{spec: "disk.read=-0.1", bad: true},
		{spec: "disk.read=1.01", bad: true},
		{spec: "disk.read=abc", bad: true},
		{spec: "disk.read=1/x", bad: true},
		{spec: "disk.read=1/-3", bad: true},
		{spec: "disk.read=1/", bad: true},
		{spec: "disk.read@=0.5", bad: true},
		{spec: "@2=0.5", bad: true},
		{spec: "disk.read=0.5,limit=", bad: true},
		{spec: "disk.read=0.5,limit=-1", bad: true},
		{spec: "disk.read=0.5,", bad: true},
	}
	for _, c := range cases {
		got, err := ParseRule(c.spec)
		if c.bad {
			if err == nil {
				t.Errorf("ParseRule(%q) accepted, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseRuleErrorMessagesNameTheSpec(t *testing.T) {
	// Every rejection must quote the offending spec so a crsd operator
	// can tell which of several repeated -fault flags is broken.
	for _, spec := range []string{"nonsense", "disk.read=2", "disk.read@=0.5", "disk.read=0.5,cap=3"} {
		_, err := ParseRule(spec)
		if err == nil {
			t.Fatalf("ParseRule(%q) accepted", spec)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", spec)) {
			t.Errorf("ParseRule(%q) error %q does not quote the spec", spec, err)
		}
	}
}

func TestIsKnownSite(t *testing.T) {
	for _, site := range []string{SiteDiskRead, SiteDiskIndex, SiteBus, SiteFS2, SiteRetrieve} {
		if !IsKnownSite(site) {
			t.Errorf("IsKnownSite(%q) = false", site)
		}
	}
	for _, site := range []string{"", "disk", "disk.write", "fs2", "FS2.match"} {
		if IsKnownSite(site) {
			t.Errorf("IsKnownSite(%q) = true", site)
		}
	}
}
