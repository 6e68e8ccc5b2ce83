package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the machine and toolchain a record was measured on; -compare
// refuses to set records from different core counts side by side.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown" where the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitCommit names the measured commit; a checkout that is not a git
// repository (the acceptance driver's) reports "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// gave to other guests since it was started. The guest cannot see why a
// stolen interval was slow, only that it did not run: an operation timed
// across one measures the neighbours, not the code.
type stealMeter struct {
	at      time.Time
	jiffies int64
}

// stealJiffies reads the cumulative steal time of all CPUs, in USER_HZ
// (1/100 s) ticks: the eighth value after "cpu" on /proc/stat's first line.
// A host that does not report it reads as no steal.
func stealJiffies() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(fields[8], 10, 64)
	return n
}

func startSteal() stealMeter { return stealMeter{at: time.Now(), jiffies: stealJiffies()} }

func (m stealMeter) share() float64 {
	capacity := time.Since(m.at).Seconds() * float64(runtime.NumCPU())
	if capacity <= 0 {
		return 0
	}
	return float64(stealJiffies()-m.jiffies) / 100 / capacity
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
