package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestLedgerGolden is the gate on the paper ledger: every section's
// output, byte for byte, against testdata/ledger.golden. The golden only
// ever comes from the program (see the package comment), never from
// EXPERIMENTS.md.
func TestLedgerGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/ledger.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	out = &got
	defer func() { out = os.Stdout }()
	if err := runLedger("all"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("ledger differs from testdata/ledger.golden at line %d:\n  golden: %s\n  tree:   %s", i+1, w, g)
		}
	}
}
