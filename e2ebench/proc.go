package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// profiler gathers the process-level view of a traced run: a CPU profile,
// getrusage CPU time and allocation counters, over the traced spans only
// (start/stop pairs; the untraced halves are excluded).
type profiler struct {
	buf      bytes.Buffer
	profiles [][]byte
	on       bool
	t0       time.Time
	cpu0     time.Duration
	ms0      runtime.MemStats

	wall, cpu              time.Duration
	gc, allocBytes, allocN uint64
	st                     stealSpan
	stolen, ticks          uint64 // host steal and total jiffies over the traced spans
}

func newProfiler() *profiler { return &profiler{} }

func (p *profiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		// reported by stop through the missing profile
		p.on = false
	} else {
		p.on = true
	}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = processCPU()
	p.st = startSteal()
	p.t0 = time.Now()
}

func (p *profiler) stop() error {
	p.wall += time.Since(p.t0)
	p.cpu += processCPU() - p.cpu0
	if st, tot := hostSteal(); tot > p.st.total {
		p.stolen += st - p.st.steal
		p.ticks += tot - p.st.total
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gc += uint64(ms.NumGC - p.ms0.NumGC)
	p.allocBytes += ms.TotalAlloc - p.ms0.TotalAlloc
	p.allocN += ms.Mallocs - p.ms0.Mallocs
	if !p.on {
		return fmt.Errorf("CPU profile could not be started")
	}
	pprof.StopCPUProfile()
	p.on = false
	p.profiles = append(p.profiles, append([]byte(nil), p.buf.Bytes()...))
	return nil
}

// report records the CPU self time per module and the process counters.
func (p *profiler) report(rec *recorder) error {
	cpu := map[string]float64{}
	for _, raw := range p.profiles {
		prof, err := parseCPUProfile(raw)
		if err != nil {
			return err
		}
		by, err := prof.attribute(moduleOf, "runtime")
		if err != nil {
			return err
		}
		for m, s := range by {
			cpu[m] += s
		}
	}
	for _, m := range append(append([]string{}, modules...), "runtime") {
		rec.set(m+".cpu_s", "s", cpu[m])
	}
	rec.set("proc.cpu_util", "ratio", p.cpu.Seconds()/(p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	steal := 0.0
	if p.ticks > 0 {
		steal = float64(p.stolen) / float64(p.ticks)
	}
	rec.set("proc.steal_frac", "ratio", steal)
	rec.set("runtime.gc_cycles", "count", float64(p.gc))
	rec.set("runtime.alloc_bytes", "B", float64(p.allocBytes))
	rec.set("runtime.alloc_objects", "count", float64(p.allocN))
	return nil
}

// moduleOf maps a profiled function name to its graphsys/internal module
// when that module is one the benchmark reports ("" otherwise), so that
// subpackages count to their parent (graph/gen is graph).
func moduleOf(fn string) string {
	const prefix = "graphsys/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return ""
}

// processCPU is the process's user plus system CPU time from getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealLimit is the largest share of the host's CPU time the hypervisor may
// have taken from this VM (steal time in /proc/stat) during a measurement
// for it to count as clean.
const stealLimit = 0.05

// stealSpan measures the hypervisor's steal share over an interval.
type stealSpan struct{ steal, total uint64 }

func startSteal() stealSpan {
	st, tot := hostSteal()
	return stealSpan{st, tot}
}

// share returns stolen ÷ total CPU time across all CPUs since the span
// started (0 where /proc/stat is unavailable).
func (s stealSpan) share() float64 {
	st, tot := hostSteal()
	if tot <= s.total {
		return 0
	}
	return float64(st-s.steal) / float64(tot-s.total)
}

// hostSteal reads the cumulative steal and total jiffies of all CPUs.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		// guest time is already counted in user time
		if i < 8 {
			total += v
		}
	}
	return steal, total
}

// sample is one repeated measurement with the steal share during it.
type sample struct{ v, steal float64 }

// cleanIdx picks, from measurements with the given steal shares, those
// taken with steal at or below stealLimit or, when fewer than half of them
// were, the least-stolen half. Time the hypervisor gives to other tenants
// is not the program's; on a shared host it comes in spells that would
// otherwise decide a run's figures.
func cleanIdx(steals []float64) []int {
	idx := make([]int, len(steals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steals[idx[a]] < steals[idx[b]] })
	n := 0
	for n < len(idx) && steals[idx[n]] <= stealLimit {
		n++
	}
	if half := (len(idx) + 1) / 2; n < half {
		n = half
	}
	return idx[:n]
}

// cleanValues returns the values of the samples cleanIdx picks.
func cleanValues(xs []sample) []float64 {
	steals := make([]float64, len(xs))
	for i, x := range xs {
		steals[i] = x.steal
	}
	var out []float64
	for _, i := range cleanIdx(steals) {
		out = append(out, xs[i].v)
	}
	return out
}

// resetPeakRSS releases free heap to the OS and resets the kernel's
// resident-set high-water mark, so peakRSSMiB covers only what follows.
func resetPeakRSS() {
	releaseMemory()
	// "5" resets VmHWM (Documentation/filesystems/proc.rst); without it the
	// peak would include setup
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostStamp describes the host and the run.
func hostStamp(commit, workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":    workload,
		"seed":        seed,
		"workers":     workers,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"commit":      commit,
		"source_hash": sourceHash("internal"),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources under dir, identifying the code under
// test when the checkout carries no commit.
func sourceHash(dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
