package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment describes the machine and toolchain a run measured on.
// The parallel figures depend on the CPU count, so every output carries
// it.
func environment() map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where there is none).
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

// printEnv writes the environment as "env key value" lines, sorted.
func printEnv(env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env %-22s %s\n", k, env[k])
	}
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: all
// ticks and those stolen by the hypervisor. ok is false where there is
// no such file.
func cpuTicks() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealClock measures the share of the machine's CPU time the
// hypervisor gave to other guests since it was started.
type stealClock struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealClock {
	t, s, ok := cpuTicks()
	return stealClock{t, s, ok}
}

// share returns the stolen share since start (0 where unmeasurable).
func (c stealClock) share() float64 {
	t, s, ok := cpuTicks()
	if !ok || !c.ok || t <= c.total {
		return 0
	}
	return float64(s-c.steal) / float64(t-c.total)
}

// cpuTime is the CPU time the process has used so far, user and
// system, over all its threads. Time the hypervisor stole from the
// machine is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
