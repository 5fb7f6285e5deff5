package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile interpolates linearly between the closest ranks of a copy of
// xs; q is in [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hostBlock describes the machine a result was measured on.
func hostBlock(stagingDir string) map[string]any {
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":          cpuModel(),
		"kernel":             readTrim("/proc/sys/kernel/osrelease"),
		"staging_filesystem": filesystemOf(stagingDir),
	}
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks:
// user, nice, system, idle, iowait, irq, softirq, steal.
type cpuTimes [8]float64

func readCPUTimes() cpuTimes {
	var c cpuTimes
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := range c {
		if i+1 < len(fields) {
			c[i], _ = strconv.ParseFloat(fields[i+1], 64)
		}
	}
	return c
}

// hostLoad gives the shares of this machine's CPU time since start that
// the hypervisor gave to other guests (steal) and that went to waiting on
// disk (iowait). A run with high steal measured a slower host, not a
// slower program.
func hostLoad(start cpuTimes) map[string]float64 {
	end := readCPUTimes()
	var total float64
	for i := range end {
		total += end[i] - start[i]
	}
	if total <= 0 {
		return nil
	}
	return map[string]float64{
		"cpu_steal_pct":  (end[7] - start[7]) / total * 100,
		"cpu_iowait_pct": (end[4] - start[4]) / total * 100,
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
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

// filesystemOf names the mount holding dir, from the longest matching
// mount point in /proc/mounts, as "<type> on <mount point>".
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > bestLen {
			best, bestLen = fields[2]+" on "+mnt, len(mnt)
		}
	}
	return best
}
