package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuTime is the CPU time (user + system) pid has used so far; pid 0
// is this process.
func cpuTime(pid int) (time.Duration, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is pid's peak resident set size in bytes (VmHWM); pid 0 is
// this process.
func peakRSS(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// resetPeakRSS sets pid's VmHWM back to its present resident set size,
// so a later peakRSS reads the peak since now; pid 0 is this process.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// serving sums a measure over this process and the given children.
func serving(pids []int, measure func(int) (int64, error)) (int64, error) {
	var total int64
	for _, pid := range append([]int{0}, pids...) {
		v, err := measure(pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func cpuNanos(pid int) (int64, error) {
	d, err := cpuTime(pid)
	return int64(d), err
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat: time the hypervisor gave this machine's CPUs to others is
// the noise a like-for-like comparison must see.
func cpuTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
