package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envStamp records where and how a result was measured; it rides in
// every run record and result file.
type envStamp struct {
	GitSHA      string  `json:"git_sha"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        int64   `json:"seed"`
	Rounds      int     `json:"rounds"`
	RoundSecs   float64 `json:"round_seconds"`
	OpenRate    int     `json:"open_loop_rate_per_s"`
	Clients     int     `json:"clients"`
	WALFsync    string  `json:"wal_fsync"`
	WALDirFS    string  `json:"wal_dir_filesystem"`
	LoadAvg1    float64 `json:"load_avg_1min"`
	SetupRepeat int     `json:"setup_repeats"`
}

func stampEnv(cfg runConfig) envStamp {
	e := envStamp{
		GitSHA: gitSHA(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Rounds: rounds, RoundSecs: cfg.seconds / rounds,
		OpenRate: openRate, Clients: clientCount,
		WALFsync: "always", WALDirFS: filesystemOf(cfg.outDir), LoadAvg1: loadAvg1(),
		SetupRepeat: setupRepeats,
	}
	if cfg.traced {
		e.RoundSecs *= untracedShare
		e.SetupRepeat = 1
	}
	return e
}

// gitSHA asks git; outside a repository (the driver's checkout is not
// one) it reads "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// filesystemOf names the filesystem type of the mount holding dir: the
// longest mount point in /proc/mounts that is a prefix of it.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
