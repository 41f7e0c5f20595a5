// Command benchengine measures whole pregel supersteps end to end and writes
// BENCH_engine.json: rounds/sec and allocs/round for PageRank and HashMin
// connected components at 1, 2 and 8 workers, across the two communication
// paths — dense slot combiner (the production path) and map-keyed combiner
// (its dominance baseline).
//
// It measures what the survey's communication column actually predicts:
// end-to-end superstep throughput. Per-round figures are DIFFERENTIAL — each cell runs
// the same workload at two superstep counts and divides the deltas — so
// graph construction, buffer warm-up and gang startup cancel out and only
// the steady-state per-round increment remains. That is what makes the
// allocs/round ≈ 0 claim measurable from outside the engine.
//
// Before writing the report the command re-verifies, in-process, that both
// paths produce bitwise-identical PageRank ranks and CC labels; it exits 1 on
// any divergence, so a report can never gate on numbers from inequivalent
// engines. Equivalence of both paths to the serial reference executor is
// checked by internal/pregel's tests.
//
//	go run ./cmd/benchengine -out BENCH_engine.json        # full run
//	go run ./cmd/benchengine -smoke -out BENCH_engine.json # verify gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/hypo"
	"graphsys/internal/pregel"
)

var paths = []struct {
	name string
	path pregel.CommsPath
}{
	{"dense", pregel.CommsDense},
	{"map", pregel.CommsMap},
}

// runAlgo executes one measured run and returns the supersteps it took plus
// the delivered-message count.
func runAlgo(g *graph.Graph, algo string, workers, iters int, path pregel.CommsPath) (rounds int, msgs int64) {
	cfg := pregel.Config{Workers: workers, Comms: path}
	switch algo {
	case "pagerank":
		_, res, err := pregel.PageRank(g, iters, cfg)
		if err != nil {
			fatal(err)
		}
		return res.Supersteps, res.Net.Messages + res.Net.LocalMessages
	case "cc":
		cfg.MaxSupersteps = iters
		_, res, err := pregel.HashMinCC(g, cfg)
		if err != nil {
			fatal(err)
		}
		return res.Supersteps, res.Net.Messages + res.Net.LocalMessages
	}
	fatal(fmt.Errorf("unknown algo %q", algo))
	return 0, 0
}

// measureCell benchmarks one (algo, path, workers) cell differentially:
// a short and a long run of the same workload, per-round = Δ/Δrounds.
func measureCell(g *graph.Graph, algo string, workers, shortIters, longIters int, path pregel.CommsPath) hypo.EngineRow {
	bench := func(iters int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runAlgo(g, algo, workers, iters, path)
			}
		})
	}
	shortRounds, _ := runAlgo(g, algo, workers, shortIters, path)
	longRounds, msgs := runAlgo(g, algo, workers, longIters, path)
	dRounds := longRounds - shortRounds
	if dRounds <= 0 {
		fatal(fmt.Errorf("%s workers=%d: degenerate differential (%d vs %d rounds)", algo, workers, shortRounds, longRounds))
	}
	sr, lr := bench(shortIters), bench(longIters)
	nsPerRound := (lr.NsPerOp() - sr.NsPerOp()) / int64(dRounds)
	if nsPerRound < 1 {
		nsPerRound = 1
	}
	allocsPerRound := float64(lr.AllocsPerOp()-sr.AllocsPerOp()) / float64(dRounds)
	if allocsPerRound < 0 {
		allocsPerRound = 0
	}
	return hypo.EngineRow{
		Algo:           algo,
		Path:           pathName(path),
		Workers:        workers,
		Rounds:         longRounds,
		NsPerRound:     nsPerRound,
		RoundsPerSec:   1e9 / float64(nsPerRound),
		AllocsPerRound: allocsPerRound,
		MsgsPerRound:   msgs / int64(longRounds),
	}
}

func pathName(p pregel.CommsPath) string {
	for _, c := range paths {
		if c.path == p {
			return c.name
		}
	}
	return "?"
}

// equivalenceCheck re-runs both algorithms on every path and worker count and
// demands bitwise-identical results — the determinism contract the gates
// assume.
func equivalenceCheck(g *graph.Graph) map[string]any {
	identical := true
	detail := ""
	for _, workers := range []int{1, 2, 8} {
		var basePR []float64
		var baseCC []int32
		for _, c := range paths {
			pr, _, err := pregel.PageRank(g, 8, pregel.Config{Workers: workers, Comms: c.path})
			if err != nil {
				fatal(err)
			}
			cc, _, err := pregel.HashMinCC(g, pregel.Config{Workers: workers, Comms: c.path, MaxSupersteps: 100000})
			if err != nil {
				fatal(err)
			}
			if c.path == pregel.CommsDense {
				basePR, baseCC = pr, cc
				continue
			}
			for v := range basePR {
				if pr[v] != basePR[v] || cc[v] != baseCC[v] {
					identical = false
					detail = fmt.Sprintf("%s diverges from dense at workers=%d vertex=%d", c.name, workers, v)
				}
			}
		}
	}
	return map[string]any{
		"identical": identical,
		"detail":    detail,
		"paths":     "pagerank ranks and cc labels compared bitwise: dense vs map at workers 1/2/8",
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchengine: %v\n", err)
	os.Exit(1)
}

func main() {
	out := flag.String("out", "BENCH_engine.json", "output path")
	smoke := flag.Bool("smoke", false, "few iterations; correctness of the harness, not stable timings")
	testing.Init()
	flag.Parse()
	benchtime := "3x"
	scale, deg := 12, 16
	shortIters, longIters := 10, 40
	if *smoke {
		benchtime = "1x"
		scale, deg = 9, 8
		shortIters, longIters = 4, 12
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fatal(err)
	}

	g := gen.RMAT(scale, deg, 42)
	// CC runs on a grid: HashMin propagation needs ~(rows+cols) supersteps to
	// converge there, which leaves a wide steady-state window for the
	// differential (on RMAT it converges in ~5 rounds and the denominator
	// collapses into noise)
	side := 64
	ccShort, ccLong := 10, 40
	if *smoke {
		side = 24
		ccShort, ccLong = 4, 12
	}
	ccg := gen.Grid(side, side)

	rep := hypo.EngineReport{
		GeneratedBy: "cmd/benchengine",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Smoke:       *smoke,
		Note: fmt.Sprintf("end-to-end pregel supersteps: PageRank on RMAT(scale=%d, deg=%d), HashMin CC on a "+
			"%dx%d grid (long propagation horizon). Per-round figures are differential (long minus short "+
			"run over Δrounds), so setup cancels and only the steady-state increment remains. dense = "+
			"[]int32 slot-table combiner addressing; map = hash-map combiner. Both paths produce "+
			"bitwise-identical results (equivalence_check).", scale, deg, side, side),
	}

	for _, workers := range []int{1, 2, 8} {
		for _, c := range paths {
			rep.Rows = append(rep.Rows, measureCell(g, "pagerank", workers, shortIters, longIters, c.path))
			rep.Rows = append(rep.Rows, measureCell(ccg, "cc", workers, ccShort, ccLong, c.path))
		}
	}

	rep.Check = equivalenceCheck(gen.RMAT(9, 8, 7))
	if rep.Check["identical"] != true {
		fmt.Fprintf(os.Stderr, "benchengine: equivalence check failed: %v\n", rep.Check["detail"])
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	for _, r := range rep.Rows {
		fmt.Printf("%-8s %-6s workers=%d  %9d ns/round (%8.1f rounds/s)  %6.2f allocs/round  %7d msgs/round\n",
			r.Algo, r.Path, r.Workers, r.NsPerRound, r.RoundsPerSec, r.AllocsPerRound, r.MsgsPerRound)
	}
	fmt.Printf("wrote %s (gomaxprocs=%d)\n", *out, rep.GOMAXPROCS)
}
