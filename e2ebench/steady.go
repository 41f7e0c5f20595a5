package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchDef is the part of BENCHMARK.json the steadiness mode reads.
type benchDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs two sets of n untraced runs per workload, each run with its
// own seed, and prints per end-to-end metric each set's median and
// quartiles, the spread (interquartile distance over the median) of each set
// and of both together, and whether the sets agree within the metric's
// bound: every spread within it (setup_s excepted) and the second median no
// worse than the first by more than it. It returns the process exit code.
func runSteady(n int, commit, scratch string) int {
	const path = "BENCHMARK.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: parsing", path+":", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	pass := []string{"--commit", commit, "--scratch", scratch}
	ok := true
	for _, w := range def.Workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				seed := int64(s*n + i + 1)
				vals, err := oneRun(self, pass, w.Name, seed, def.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				for k, v := range vals {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		fmt.Printf("\n%s: two sets of %d runs\n", w.Name, n)
		fmt.Printf("%-20s %10s %10s %10s %7s | %10s %10s %10s %7s | %7s | %6s %s\n",
			"metric", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "both", "bound", "verdict")
		for _, m := range def.EndToEnd {
			var q [2][3]float64
			var spread [2]float64
			for s := range sets {
				xs := sets[s][m.Name]
				if len(xs) != n {
					fmt.Printf("%-20s missing from some runs\n", m.Name)
					ok = false
					continue
				}
				q[s] = quartiles(xs)
				spread[s] = (q[s][2] - q[s][0]) / q[s][1]
			}
			all := quartiles(append(append([]float64{}, sets[0][m.Name]...), sets[1][m.Name]...))
			both := (all[2] - all[0]) / all[1]
			drift := (q[1][1] - q[0][1]) / q[0][1]
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := "agree"
			switch {
			case m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound || both > m.Bound):
				verdict = "SPREAD"
			case drift > m.Bound:
				verdict = "DRIFT"
			case m.Name != "setup_s" && (spread[0] > m.Bound/3 || spread[1] > m.Bound/3 || both > m.Bound/3):
				verdict = "agree (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "SPREAD") || verdict == "DRIFT" {
				ok = false
			}
			fmt.Printf("%-20s %10.4g %10.4g %10.4g %7.3f | %10.4g %10.4g %10.4g %7.3f | %7.3f | %6.2f %s\n",
				m.Name, q[0][0], q[0][1], q[0][2], spread[0], q[1][0], q[1][1], q[1][2], spread[1], both, m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// oneRun runs the benchmark once in a child process and returns the
// metrics of its result line.
func oneRun(self string, pass []string, workload string, seed int64, seconds int) (map[string]float64, error) {
	args := append(append([]string{}, pass...), "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %.1fs\n", workload, seed, time.Since(t0).Seconds())
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("run reported incorrect results")
	}
	out := map[string]float64{}
	for k, m := range rep.Metrics {
		out[k] = m.Value
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs:
// the quartiles as Python's statistics.quantiles(xs, n=4) computes them
// (its default "exclusive" method), the median as statistics.median.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return [3]float64{q(1), median(s), q(3)}
}
