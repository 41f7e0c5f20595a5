package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"graphsys/internal/cluster"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/pregel"
	"graphsys/internal/storage"
)

// Analytics stage sizes. PageRank runs on a skewed R-MAT graph with every
// vertex active; HashMin CC on a square lattice, every vertex active over
// hundreds of rounds; BFS on a long, narrow lattice from a corner, a thin
// frontier over about two thousand supersteps, so that per-superstep fixed
// cost dominates. On disk, PageRank sweeps every block each superstep while
// BFS's frontier slides through the blocks.
const (
	rmatScale      = 16
	rmatEdgeFactor = 8
	prIters        = 20
	ccVertices     = 1 << 16
	ccEdges        = 4 << 16
	bfsRows        = 2048
	bfsCols        = 64
	bfsSource      = 0
	// maxSupersteps lifts the engine's default bound of 1000, which BFS
	// along the lattice (2110 supersteps) would hit.
	maxSupersteps = 1 << 20

	// blockBytes is the block-file block size; at the cache budget below
	// each worker's share must hold at least one decoded block.
	blockBytes = 4 << 10
	// cacheFrac is the block cache budget on top of the resident degree
	// table and index, as a share of the raw in-memory CSR.
	cacheFrac = 0.15
	// prTolerance bounds PageRank's distance from the serial oracle.
	prTolerance = 1e-9
	// residualLimit bounds the traced pregel.residual: the share of a run's
	// wall time that the compute, skew and sync spans do not cover (the
	// engine's set-up before the first Compute call and its teardown).
	residualLimit = 0.10
)

const (
	algoPR = iota
	algoCC
	algoBFS
)

// anaInput holds the three analytics graphs, their block files on the disk
// workload, and the oracle answers.
type anaInput struct {
	g     [3]*graph.Graph // nil on the disk workload once the oracles ran
	n     [3]int
	info  [3]*storage.Info
	prov  [3]*storage.CachedProvider
	disk  bool
	prRef []float64 // serial power-iteration ranks
	prMem []float64 // in-memory engine ranks (disk workload only)
	ccRef []int32   // union-find labels: smallest vertex id of the component
	bfRef []int32   // serial BFS hop distances, -1 when unreachable
}

func (r *run) setupAnalytics(dir string, sp *setupSpans) (*anaInput, error) {
	a := &anaInput{disk: r.disk}
	t0 := time.Now()
	a.g[algoPR] = gen.RMAT(rmatScale, rmatEdgeFactor, r.seed)
	a.g[algoCC] = gen.ErdosRenyi(ccVertices, ccEdges, r.seed+1)
	a.g[algoBFS] = gen.Grid(bfsRows, bfsCols)
	sp.gen += since(&t0)
	for i, g := range a.g {
		a.n[i] = g.NumVertices()
	}
	if !r.disk {
		return a, nil
	}
	for i, g := range a.g {
		info, err := storage.Write(filepath.Join(dir+"-"+algos[i]+".gsb"), g, storage.Options{BlockBytes: blockBytes})
		if err != nil {
			return a, err
		}
		a.info[i] = info
	}
	sp.write += since(&t0)
	for i := range a.g {
		p, err := openBudgeted(a.info[i], workers)
		if err != nil {
			return a, err
		}
		a.prov[i] = p
	}
	sp.open += since(&t0)
	return a, nil
}

// openBudgeted opens a block file under the benchmark's cache budget.
func openBudgeted(info *storage.Info, workers int) (*storage.CachedProvider, error) {
	budget := info.ResidentBytes + int64(cacheFrac*float64(info.RawCSRBytes))
	return storage.OpenCached(info.Path, budget, workers, storage.LRU)
}

func (a *anaInput) close() {
	for i, p := range a.prov {
		if p != nil {
			p.Close()
			a.prov[i] = nil
		}
	}
}

func (a *anaInput) dropGraphs() {
	a.g = [3]*graph.Graph{}
	releaseMemory()
}

// source returns the adjacency source of algorithm i for one job: nil in
// memory, or a freshly opened provider so that every job starts from a cold
// block cache.
func (a *anaInput) source(i, workers int) (storage.Provider, error) {
	if !a.disk {
		return nil, nil
	}
	if a.prov[i] != nil {
		a.prov[i].Close()
		a.prov[i] = nil
	}
	p, err := openBudgeted(a.info[i], workers)
	if err != nil {
		return nil, err
	}
	a.prov[i] = p
	return p, nil
}

// analyticsOracles computes the serial reference answers, and on the disk
// workload the in-memory engine's ranks, before anything is measured.
func (r *run) analyticsOracles(a *anaInput) error {
	a.prRef = serialPageRank(a.g[algoPR], prIters)
	a.ccRef = unionFindCC(a.g[algoCC])
	a.bfRef = serialBFS(a.g[algoBFS], bfsSource)
	if a.disk {
		ranks, _, err := pregel.PageRank(a.g[algoPR], prIters, pregel.Config{Workers: workers, MaxSupersteps: maxSupersteps})
		if err != nil {
			return fmt.Errorf("in-memory PageRank reference: %w", err)
		}
		a.prMem = ranks
	}
	return nil
}

// algoRun is one algorithm execution with its answer and counters.
type algoRun struct {
	wall   time.Duration
	steal  float64 // hypervisor steal share during the run
	ranks  []float64
	labels []int32
	res    pregelStats
	io     storage.IOStats
	tr     pregelTrace
}

type pregelStats struct {
	supersteps int
	net        cluster.Stats
}

// anaAcc accumulates the analytics stage's samples over the run's cycles.
type anaAcc struct {
	first  [3]*algoRun   // the run's first answer per algorithm
	walls  [3][]sample   // untraced wall times
	traced [3][]*algoRun // traced runs
}

// analytics runs the analytics job (PageRank, CC, BFS) repeatedly for one
// cycle's budget. Untraced repetitions time each algorithm through the
// public entry points. A traced run spends half the budget that way and
// half on benchmark-side programs through pregel.Run, which record
// per-worker compute spans, send and neighbor time.
func (r *run) analytics(a *anaInput, acc *anaAcc, budget time.Duration) error {
	untracedBudget := budget
	if r.traced {
		untracedBudget = budget / 2
	}
	err := repeatAtLeast(untracedBudget, 1, func(int) error {
		for i := range algos {
			ar, err := r.runAlgo(a, i, nil)
			if err != nil {
				return err
			}
			r.rec.op(a.check(i, ar, acc.first[i]))
			if acc.first[i] == nil {
				acc.first[i] = ar
			}
			acc.walls[i] = append(acc.walls[i], sample{secs(ar.wall), ar.steal})
		}
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	r.prof.start()
	err = repeatAtLeast(budget-untracedBudget, 1, func(int) error {
		for i := range algos {
			ar, err := r.runAlgo(a, i, r.prof)
			if err != nil {
				return err
			}
			r.rec.op(a.check(i, ar, acc.first[i]))
			acc.traced[i] = append(acc.traced[i], ar)
		}
		return nil
	})
	if perr := r.prof.stop(); err == nil {
		err = perr
	}
	return err
}

// analyticsReport records the stage's metrics and returns the summed
// untraced and traced wall times of the three algorithms.
func (r *run) analyticsReport(acc *anaAcc) (untraced, traced float64) {
	for i, name := range []string{"pagerank_s", "cc_s", "bfs_s"} {
		untraced += r.rec.setClean(name, "s", false, acc.walls[i])
	}
	if !r.traced {
		return untraced, 0
	}
	for i, name := range algos {
		runs := acc.traced[i]
		pick := func(f func(*algoRun) float64) []float64 {
			xs := make([]float64, len(runs))
			for j, ar := range runs {
				xs[j] = f(ar)
			}
			return xs
		}
		traced += betterHalfMean(pick(func(ar *algoRun) float64 { return secs(ar.wall) }), false)
		last := runs[len(runs)-1]
		r.rec.set("pregel.supersteps."+name, "count", float64(last.res.supersteps))
		r.rec.setSampled("pregel.compute_s."+name, "s", pick(func(ar *algoRun) float64 { return secs(ar.tr.compute) }))
		r.rec.setSampled("pregel.skew_s."+name, "s", pick(func(ar *algoRun) float64 { return secs(ar.tr.skew) }))
		r.rec.setSampled("pregel.sync_s."+name, "s", pick(func(ar *algoRun) float64 { return secs(ar.tr.sync) }))
		r.rec.setSampled("pregel.imbalance."+name, "ratio", pick(func(ar *algoRun) float64 { return ar.tr.imbalance }))
		for _, ar := range runs {
			if math.Abs(ar.tr.residual) > residualLimit {
				r.rec.problem(fmt.Errorf("%s: pregel.residual %.3f outside ±%.2f: compute, skew and sync spans do not cover the run", name, ar.tr.residual, residualLimit))
			}
		}
		r.rec.setSampled("pregel.residual."+name, "ratio", pick(func(ar *algoRun) float64 { return ar.tr.residual }))
		r.rec.setSampled("cluster.send_s."+name, "s", pick(func(ar *algoRun) float64 { return secs(ar.tr.send) }))
		r.rec.set("cluster.messages."+name, "count", float64(last.res.net.Messages))
		r.rec.set("cluster.local_messages."+name, "count", float64(last.res.net.LocalMessages))
		r.rec.set("cluster.bytes."+name, "B", float64(last.res.net.Bytes))
		r.rec.setSampled("storage.neighbors_s."+name, "s", pick(func(ar *algoRun) float64 { return secs(ar.tr.neighbors) }))
		setIOStats(r.rec, name, last.io)
	}
	return untraced, traced
}

func setIOStats(rec *recorder, suffix string, io storage.IOStats) {
	rec.set("storage.hits."+suffix, "count", float64(io.Hits))
	rec.set("storage.misses."+suffix, "count", float64(io.Misses))
	rec.set("storage.bytes_read."+suffix, "B", float64(io.BytesRead))
	rec.set("storage.hit_ratio."+suffix, "ratio", io.HitRatio())
}

// repeatAtLeast calls fn with rep = 0, 1, ... until budget has elapsed and
// it has run at least n times.
func repeatAtLeast(budget time.Duration, n int, fn func(rep int) error) error {
	start := time.Now()
	for rep := 0; ; rep++ {
		if err := fn(rep); err != nil {
			return err
		}
		if rep+1 >= n && time.Since(start) >= budget {
			return nil
		}
	}
}

// runAlgo runs analytics algorithm i once. With prof nil it calls the public
// entry point; otherwise it runs the traced benchmark-side program.
func (r *run) runAlgo(a *anaInput, i int, prof *profiler) (*algoRun, error) {
	src, err := a.source(i, workers)
	if err != nil {
		return nil, err
	}
	g := a.g[i]
	cfg := pregel.Config{Workers: workers, Source: src, MaxSupersteps: maxSupersteps}
	ar := &algoRun{}
	var res pregelStats
	runtime.GC() // every repetition starts from a collected heap
	st := startSteal()
	t0 := time.Now()
	if prof == nil {
		switch i {
		case algoPR:
			ranks, pr, err := pregel.PageRank(g, prIters, cfg)
			if err != nil {
				return nil, err
			}
			ar.ranks, res = ranks, pregelStats{pr.Supersteps, pr.Net}
		case algoCC:
			labels, pr, err := pregel.HashMinCC(g, cfg)
			if err != nil {
				return nil, err
			}
			ar.labels, res = labels, pregelStats{pr.Supersteps, pr.Net}
		case algoBFS:
			dist, pr, err := pregel.SSSP(g, bfsSource, cfg)
			if err != nil {
				return nil, err
			}
			ar.labels, res = dist, pregelStats{pr.Supersteps, pr.Net}
		}
		ar.wall = time.Since(t0)
	} else {
		var tr pregelTrace
		switch i {
		case algoPR:
			ar.ranks, res, tr, err = tracedPageRank(g, a.n[i], prIters, cfg)
		case algoCC:
			ar.labels, res, tr, err = tracedHashMin(g, cfg)
		case algoBFS:
			ar.labels, res, tr, err = tracedBFS(g, bfsSource, cfg)
		}
		if err != nil {
			return nil, err
		}
		ar.tr = tr
		ar.wall = tr.wall
	}
	ar.steal = st.share()
	ar.res = res
	if src != nil {
		ar.io = src.Stats()
	}
	return ar, nil
}

// check verifies one algorithm answer: against the serial oracle, against
// the in-memory engine's answer on the disk workload, and bitwise against
// the run's first answer (runs repeat, and traced runs must match untraced).
func (a *anaInput) check(i int, ar, first *algoRun) error {
	name := algos[i]
	if first != nil {
		if !sameFloats(ar.ranks, first.ranks) || !sameInts(ar.labels, first.labels) {
			return fmt.Errorf("%s: answer differs bitwise from the run's first answer", name)
		}
		return nil
	}
	switch i {
	case algoPR:
		if len(ar.ranks) != len(a.prRef) {
			return fmt.Errorf("pagerank: %d ranks, want %d", len(ar.ranks), len(a.prRef))
		}
		for v, x := range ar.ranks {
			if d := math.Abs(x - a.prRef[v]); !(d <= prTolerance) {
				return fmt.Errorf("pagerank: vertex %d rank %.17g, serial oracle %.17g", v, x, a.prRef[v])
			}
		}
		if a.prMem != nil && !sameFloats(ar.ranks, a.prMem) {
			return fmt.Errorf("pagerank: disk-backed ranks differ bitwise from the in-memory engine")
		}
	case algoCC:
		if !sameInts(ar.labels, a.ccRef) {
			return fmt.Errorf("cc: labels differ from union-find")
		}
	case algoBFS:
		if !sameInts(ar.labels, a.bfRef) {
			return fmt.Errorf("bfs: distances differ from serial BFS")
		}
	}
	return nil
}
