// Command e2ebench is the repository's end-to-end benchmark. One process runs
// the survey's three job families as one pipeline (Figure 1): TLAV analytics
// (PageRank, HashMin CC and BFS on the pregel engine), sampled GCN training
// through gnndist, and a live query stream served by the gthinkerq and quegel
// engines. Every result is checked against a serial oracle. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// with --trace 1 the per-layer metrics, gathered from outside the program:
// spans around calls into each layer's public functions and the callbacks
// the benchmark supplies, counters the program exports, and a CPU profile.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload pipeline-mem --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --steady 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workers is the engine width of every job. It is fixed so that every host
// runs the same program.
const workers = 2

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 45, "measured time of one run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	steady := flag.Int("steady", 0, "run two sets of this many runs per workload and compare them")
	commit := flag.String("commit", "none", "commit of the code under test, for the run stamp")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "run"), "directory for block files")
	flag.Parse()

	if *steady > 0 {
		os.Exit(runSteady(*steady, *commit, *scratch))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	disk, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &run{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		disk:   disk,
		rec:    newRecorder(*trace == 1),
		stamp:  hostStamp(*commit, *workload, *seed),
	}
	os.Exit(r.main(*scratch))
}

// workloads maps each workload to whether its analytics read adjacency
// from block files.
var workloads = map[string]bool{
	"pipeline-mem":  false,
	"pipeline-disk": true,
}

// main runs the pipeline with its block files in a fresh directory under
// scratch, prints the stamp line and the result line, and returns the exit
// code: 0 only when every check passed.
func (r *run) main(scratch string) int {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	if err := r.pipeline(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	rep := r.rec.report()
	if err := emit(map[string]any{"stamp": r.stamp, "samples": r.rec.samples, "problems": r.rec.problems}); err != nil {
		return 2
	}
	if err := emit(rep); err != nil {
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// emit prints v as one JSON line on standard output.
func emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding report:", err)
		return err
	}
	fmt.Println(string(b))
	return nil
}

// run is one benchmark run: one workload, one seed.
type run struct {
	seed   int64
	budget time.Duration // measured time, split across the stages
	traced bool
	disk   bool
	dir    string
	rec    *recorder
	stamp  map[string]any

	prof *profiler // CPU profile and process counters of the traced spans
}

// Shares of the measured time given to each stage of the pipeline, and the
// number of cycles the stages take turns in.
const (
	cycles         = 3
	analyticsShare = 0.35
	gcnShare       = 0.20
	serveShare     = 0.45
)

// pipeline sets the inputs up several times (setup_s is the median), then
// runs the three stages and checks their results.
func (r *run) pipeline() error {
	in, err := r.setupAll()
	if err != nil {
		return err
	}
	defer in.close()
	if err := r.analyticsOracles(in.ana); err != nil {
		return err
	}
	if r.disk {
		// the analytics graphs now live only in their block files
		in.ana.dropGraphs()
	}
	r.prof = newProfiler()
	resetPeakRSS()

	// the stages take turns in short cycles, so that a slow spell of the
	// host falls on all of them rather than on whichever ran during it
	var (
		ana anaAcc
		gcn gcnAcc
		srv = r.newServeAcc()
	)
	stage := func(share float64) time.Duration { return time.Duration(share * float64(r.budget) / cycles) }
	for c := 0; c < cycles; c++ {
		if err := r.analytics(in.ana, &ana, stage(analyticsShare)); err != nil {
			return err
		}
		if err := r.gcn(in.gcn, &gcn, stage(gcnShare)); err != nil {
			return err
		}
		if err := r.serve(in.srv, srv, stage(serveShare)); err != nil {
			return err
		}
	}
	untraced, traced := r.analyticsReport(&ana)
	gu, gt, err := r.gcnReport(in.gcn, &gcn)
	if err != nil {
		return err
	}
	r.serveReport(srv)
	r.rec.set("peak_rss_mb", "MiB", peakRSSMiB())

	if r.traced {
		r.rec.set("trace.overhead_frac", "ratio", (traced+gt)/(untraced+gu)-1)
		if err := r.prof.report(r.rec); err != nil {
			return err
		}
	}
	r.serveOracles(in.srv)
	return nil
}
