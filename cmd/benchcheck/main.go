// Command benchcheck is the regression gate behind `make bench-check`: it
// compares fresh BENCH_*.smoke.json runs against the committed full-run
// baselines using the typed hypotheses in internal/hypo and exits non-zero
// when a claim no longer holds. It gates machine-portable metrics only —
// allocs/op and within-run dominance ratios between two paths measured in
// the same process — never raw nanoseconds across machines. The serving-tier gates
// go further: BENCH_serving.json comes from a deterministic logical-time
// simulation, so its cells are compared against the baseline EXACTLY.
package main

import (
	"flag"
	"fmt"
	"os"

	"graphsys/internal/hypo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the exit, so tests can assert exit codes:
// 0 = all gates pass, 1 = a hypothesis failed, 2 = could not read inputs.
func run(args []string, stdout, stderr interface {
	Write([]byte) (int, error)
}) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kernels   = fs.String("kernels", "BENCH_kernels.smoke.json", "fresh kernels report (from make bench-smoke)")
		kernelsBL = fs.String("kernels-baseline", "BENCH_kernels.json", "committed kernels baseline")
		serving   = fs.String("serving", "BENCH_serving.smoke.json", "fresh serving report (from make bench-smoke)")
		servingBL = fs.String("serving-baseline", "BENCH_serving.json", "committed serving baseline")
		engine    = fs.String("engine", "BENCH_engine.smoke.json", "fresh engine report (from make bench-smoke)")
		engineBL  = fs.String("engine-baseline", "BENCH_engine.json", "committed engine baseline")
		stor      = fs.String("storage", "BENCH_storage.smoke.json", "fresh storage report (from make bench-smoke)")
		storBL    = fs.String("storage-baseline", "BENCH_storage.json", "committed storage baseline")
		artifacts = fs.String("artifacts", "hypo_runs/bench-check", "per-run artifact folder (results.json + results.csv); empty to skip")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fk, err := hypo.ReadKernelsReport(*kernels)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v (run `make bench-smoke` first)\n", err)
		return 2
	}
	bk, err := hypo.ReadKernelsReport(*kernelsBL)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	fsv, err := hypo.ReadServingReport(*serving)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v (run `make bench-smoke` first)\n", err)
		return 2
	}
	bsv, err := hypo.ReadServingReport(*servingBL)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	fe, err := hypo.ReadEngineReport(*engine)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v (run `make bench-smoke` first)\n", err)
		return 2
	}
	be, err := hypo.ReadEngineReport(*engineBL)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	fst, err := hypo.ReadStorageReport(*stor)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v (run `make bench-smoke` first)\n", err)
		return 2
	}
	bst, err := hypo.ReadStorageReport(*storBL)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}

	cfg := hypo.DefaultGateConfig()
	gates := hypo.KernelGates(fk, bk, cfg)
	gates = append(gates, hypo.ServingGates(fsv, bsv, cfg)...)
	gates = append(gates, hypo.EngineGates(fe, be, cfg)...)
	gates = append(gates, hypo.StorageGates(fst, bst, cfg)...)
	rep := hypo.Run("bench-check", gates)
	rep.Fprint(stdout)
	if *artifacts != "" {
		if err := rep.WriteDir(*artifacts); err != nil {
			fmt.Fprintf(stderr, "benchcheck: writing artifacts: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "artifacts: %s/results.{json,csv}\n", *artifacts)
	}
	if !rep.Pass() {
		return 1
	}
	return 0
}
