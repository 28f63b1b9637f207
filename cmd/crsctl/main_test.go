package main

import "testing"

// TestStatsSections: every key family the servers report lands in its
// own section of -stats, and a key no section knows falls to "other".
func TestStatsSections(t *testing.T) {
	for key, want := range map[string]string{
		"sessions":          "service",
		"served.fs1+fs2":    "served",
		"qcache.hits":       "qcache",
		"wal.enabled":       "wal",
		"flight.size":       "flight",
		"store.mapped":      "store",
		"cluster.failovers": "cluster",
		"newer.key":         "other",
	} {
		got := "other"
		for _, s := range statsSections {
			if s.match(key) {
				got = s.title
				break
			}
		}
		if got != want {
			t.Errorf("%s lands in [%s], want [%s]", key, got, want)
		}
	}
}
