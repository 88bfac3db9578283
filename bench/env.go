package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// envStamp records the machine and build a result was measured on, so a
// number is never read without its context.
type envStamp struct {
	CPUModel string `json:"cpu_model"`
	NProc    int    `json:"nproc"`
	// GOMAXPROCS of the bench process and of the daemon under test (0
	// when the workloads run started no daemon).
	GOMAXPROCSBench  int    `json:"gomaxprocs_bench"`
	GOMAXPROCSDaemon int    `json:"gomaxprocs_daemon"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Seed             int64  `json:"seed"`
	StartUTC         string `json:"start_utc"`
}

func stampEnv(seed int64, start time.Time) envStamp {
	return envStamp{
		CPUModel:        cpuModel(),
		NProc:           runtime.NumCPU(),
		GOMAXPROCSBench: runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Commit:          commit(),
		Seed:            seed,
		StartUTC:        start.UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the machine's
// CPU time so far and the part of it the hypervisor gave to other guests
// (steal), in clock ticks. ok is false where there is no such line.
func cpuTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for _, s := range f[1:9] { // user … steal; guest time is already in user
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total, steal = total+v, v
	}
	return total, steal, true
}

// stealPct returns a function that reports the share, in percent, of the
// machine's CPU time since stealPct was called that the hypervisor gave
// to other guests. On a shared host that share is how much of a run
// measured the host instead of the program.
func stealPct() func() (float64, bool) {
	total0, steal0, ok0 := cpuTicks()
	return func() (float64, bool) {
		total, steal, ok := cpuTicks()
		if !ok0 || !ok || total <= total0 {
			return 0, false
		}
		return 100 * float64(steal-steal0) / float64(total-total0), true
	}
}

// commit is the VCS revision the bench binary was built from, suffixed
// "+dirty" for a modified tree; "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
