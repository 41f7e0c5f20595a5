package pregel

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"graphsys/internal/det"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// allComms are the engine's communication paths; every test in this file
// holds each of them bitwise to the serial reference (reference_test.go).
var allComms = []struct {
	name string
	path CommsPath
}{
	{"dense", CommsDense},
	{"map", CommsMap},
}

// checkAgainstReference runs prog on every communication path and demands
// the serial reference's exact answer: identical states under same (a
// bitwise comparison for floats), the same superstep count, and a combined
// message count equal to the network's Messages + LocalMessages. Dense and
// map must also meter identical network Stats. It returns the dense result.
func checkAgainstReference[S, M any](t *testing.T, g *graph.Graph, prog Program[S, M], cfg Config, same func(a, b S) bool) *Result[S] {
	t.Helper()
	ref := serialRun(g, prog, cfg)
	var dense *Result[S]
	for _, c := range allComms {
		cfg.Comms = c.path
		res, err := Run(g, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.States {
			if !same(res.States[v], ref.States[v]) {
				t.Fatalf("%s: state[%d] = %v, serial reference says %v", c.name, v, res.States[v], ref.States[v])
			}
		}
		if res.Supersteps != ref.Supersteps {
			t.Fatalf("%s: %d supersteps, serial reference ran %d", c.name, res.Supersteps, ref.Supersteps)
		}
		if got := res.Net.Messages + res.Net.LocalMessages; got != ref.Messages {
			t.Fatalf("%s: %d combined messages metered, serial reference delivered %d", c.name, got, ref.Messages)
		}
		if dense == nil {
			dense = res
		} else if res.Net != dense.Net {
			t.Fatalf("%s stats diverge from dense:\n%+v\n%+v", c.name, res.Net, dense.Net)
		}
	}
	return dense
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameInt32(a, b int32) bool { return a == b }

// TestPageRankBitwiseAcrossCommsPaths: the dense-slot and map-keyed paths
// must reproduce the serial reference's ranks bit for bit at every worker
// count. This is the strong form of the equivalence claim — PageRank folds
// floats, so any difference in message order or combining structure shows up
// as a bit flip. The production PageRank entry point must agree with its
// mirrored program too.
func TestPageRankBitwiseAcrossCommsPaths(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	const iters = 12
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers}
			res := checkAgainstReference(t, g, pageRankProg(float64(g.NumVertices()), iters), cfg, sameFloat)
			ranks, _, err := PageRank(g, iters, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ranks {
				if !sameFloat(ranks[v], res.States[v]) {
					t.Fatalf("PageRank rank[%d] = %v, mirrored program says %v", v, ranks[v], res.States[v])
				}
			}
		})
	}
}

// TestHashMinCCBitwiseAcrossCommsPaths: same contract for an int-min program.
func TestHashMinCCBitwiseAcrossCommsPaths(t *testing.T) {
	g := gen.BarabasiAlbert(400, 2, 11)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers}
			res := checkAgainstReference(t, g, hashMinProg(), cfg, sameInt32)
			labels, _, err := HashMinCC(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range labels {
				if labels[v] != res.States[v] {
					t.Fatalf("HashMinCC label[%d] = %d, mirrored program says %d", v, labels[v], res.States[v])
				}
			}
		})
	}
}

// uncombined strips the combiner off a program, forcing every raw message
// onto the wire and through the demux.
func uncombined[S, M any](p Program[S, M]) Program[S, M] {
	p.Combine = nil
	p.CombineKey = nil
	return p
}

// pageRankProg mirrors PageRank's program so the tests can strip its
// combiner; keep in sync with algorithms.go.
func pageRankProg(n float64, iters int) Program[float64, float64] {
	const d = 0.85
	return Program[float64, float64]{
		Init: func(_ *graph.Graph, _ graph.V) float64 { return 1 / n },
		Compute: func(ctx *Context[float64], v graph.V, state *float64, msgs []float64) {
			if ctx.Superstep() > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				*state = (1-d)/n + d*sum
			}
			if ctx.Superstep() < iters {
				if deg := ctx.Graph().Degree(v); deg > 0 {
					ctx.SendToNeighbors(v, *state/float64(deg))
				}
			} else {
				ctx.VoteToHalt()
			}
		},
		Combine: func(a, b float64) float64 { return a + b },
	}
}

// hashMinProg mirrors HashMinCC's program; keep in sync with algorithms.go.
func hashMinProg() Program[int32, int32] {
	return Program[int32, int32]{
		Init: func(_ *graph.Graph, v graph.V) int32 { return int32(v) },
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			min := *state
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(v, min)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				if m < min {
					min = m
				}
			}
			if min < *state {
				*state = min
				ctx.SendToNeighbors(v, min)
			}
			ctx.VoteToHalt()
		},
		Combine: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
	}
}

// TestNoCombinerEquivalence: with the combiner stripped, every raw message
// reaches the demux, and both paths still deliver it in the reference's order
// (ascending sender rank, send order within a sender), so even float-summing
// programs stay bitwise equal. For the order-insensitive HashMinCC min-fold,
// the uncombined answer must also equal the combined one exactly; for
// PageRank the combined fold has a different float grouping, so it is
// compared within an epsilon.
func TestNoCombinerEquivalence(t *testing.T) {
	g := gen.RMAT(9, 6, 7)
	n := float64(g.NumVertices())
	const iters = 10
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers, MaxSupersteps: 100000}
			pr := checkAgainstReference(t, g, uncombined(pageRankProg(n, iters)), cfg, sameFloat)
			combined, _, err := PageRank(g, iters, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for v := range pr.States {
				if math.Abs(combined[v]-pr.States[v]) > 1e-12 {
					t.Fatalf("combined rank[%d] = %v, uncombined %v — beyond reassociation noise", v, combined[v], pr.States[v])
				}
			}

			cc := checkAgainstReference(t, g, uncombined(hashMinProg()), cfg, sameInt32)
			ccCombined, _, err := HashMinCC(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range cc.States {
				if cc.States[v] != ccCombined[v] {
					t.Fatalf("uncombined cc label[%d] = %d, combined %d — min-fold must be order-insensitive", v, cc.States[v], ccCombined[v])
				}
			}
		})
	}
}

// qmsg mirrors quegel's per-query message: combining is keyed per
// (destination vertex, query id) through CombineKey.
type qmsg struct{ qid, dist int32 }

// quegelProg mirrors quegel.AnswerBatched's program (keep in sync with
// internal/quegel/quegel.go): one BFS frontier per query, messages combined
// per (vertex, query id). It is the engine's CombineKey program, so on the
// dense path it takes the automatic map-addressed fallback.
func quegelProg(srcs []graph.V) Program[map[int32]int32, qmsg] {
	return Program[map[int32]int32, qmsg]{
		Combine: func(a, b qmsg) qmsg {
			if b.dist < a.dist {
				return b
			}
			return a
		},
		CombineKey: func(m qmsg) int32 { return m.qid },
		Init: func(_ *graph.Graph, v graph.V) map[int32]int32 {
			st := map[int32]int32{}
			for qi, s := range srcs {
				if s == v {
					st[int32(qi)] = 0
				}
			}
			return st
		},
		Compute: func(ctx *Context[qmsg], v graph.V, state *map[int32]int32, msgs []qmsg) {
			if ctx.Superstep() == 0 {
				for _, qid := range det.SortedKeys(*state) {
					for _, u := range ctx.Graph().Neighbors(v) {
						ctx.Send(u, qmsg{qid, (*state)[qid] + 1})
					}
				}
				ctx.VoteToHalt()
				return
			}
			improved := map[int32]int32{}
			for _, m := range msgs {
				if cur, ok := (*state)[m.qid]; !ok || m.dist < cur {
					(*state)[m.qid] = m.dist
					if best, seen := improved[m.qid]; !seen || m.dist < best {
						improved[m.qid] = m.dist
					}
				}
			}
			for _, qid := range det.SortedKeys(improved) {
				for _, u := range ctx.Graph().Neighbors(v) {
					ctx.Send(u, qmsg{qid, improved[qid] + 1})
				}
			}
			ctx.VoteToHalt()
		},
	}
}

// TestCombineKeyProgramMatchesReference: quegel's multi-query BFS, the
// engine's CombineKey program, must match the serial reference on both paths
// — per-query frontiers combined per (vertex, query id), never across
// queries.
func TestCombineKeyProgramMatchesReference(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 5)
	srcs := []graph.V{0, 17, 17, 150, 299}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := checkAgainstReference(t, g, quegelProg(srcs), Config{Workers: workers}, maps.Equal[map[int32]int32])
			for qi, s := range srcs {
				bfs := graph.BFSLevels(g, s)
				for v, d := range bfs {
					if got, ok := res.States[v][int32(qi)]; d >= 0 && (!ok || got != d) {
						t.Fatalf("query %d: dist(%d) = %d (reached %v), BFS says %d", qi, v, got, ok, d)
					}
				}
			}
		})
	}
}

// TestAggregatorMatchesReference: a float aggregator whose merged value feeds
// back into vertex state must fold in worker-rank order on every path, as
// the reference does.
func TestAggregatorMatchesReference(t *testing.T) {
	g := gen.RMAT(8, 6, 13)
	prog := Program[float64, float64]{
		Init: func(_ *graph.Graph, v graph.V) float64 { return 1 / float64(1+v) },
		Compute: func(ctx *Context[float64], v graph.V, state *float64, msgs []float64) {
			if ctx.Superstep() > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				*state = sum / ctx.Agg("mass")
			}
			if ctx.Superstep() == 6 {
				ctx.VoteToHalt()
				return
			}
			ctx.Aggregate("mass", *state)
			if deg := ctx.Degree(v); deg > 0 {
				ctx.SendToNeighbors(v, *state/float64(deg))
			}
		},
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkAgainstReference(t, g, prog, Config{Workers: workers}, sameFloat)
		})
	}
}

// ssspProg mirrors SSSP's program; keep in sync with algorithms.go.
func ssspProg(source graph.V) Program[int32, int32] {
	return Program[int32, int32]{
		Init: func(_ *graph.Graph, v graph.V) int32 {
			if v == source {
				return 0
			}
			return math.MaxInt32
		},
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			best := *state
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best < *state || (ctx.Superstep() == 0 && v == source) {
				*state = best
				ctx.SendToNeighbors(v, best+1)
			}
			ctx.VoteToHalt()
		},
		Combine: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
	}
}

// emptyPlus128 places no vertex on worker 0, exactly 128 vertices (every
// third id from 0) on worker 1, and the rest round-robin over workers
// 2..workers-1; with two workers, worker 1 takes every vertex.
func emptyPlus128(n, workers int) []int {
	part := make([]int, n)
	on1, next := 0, 0
	for v := range part {
		switch {
		case workers == 2 || (v%3 == 0 && on1 < 128):
			part[v] = 1
			on1++
		default:
			part[v] = 2 + next%(workers-2)
			next++
		}
	}
	return part
}

// TestThinFrontierSSSPMatchesReference: SSSP's frontier is a thin diagonal
// sweep across a lattice, so most supersteps run a handful of vertices per
// worker out of the activity bitset. The placements cover owned counts that
// are not multiples of 64 (the bitset's last word is partial), an empty
// worker, and a worker owning exactly two full words.
func TestThinFrontierSSSPMatchesReference(t *testing.T) {
	cases := []struct {
		rows, cols, workers int
		part                func(n, workers int) []int // nil = hash placement
	}{
		{37, 23, 1, nil},
		{37, 23, 2, nil},
		{37, 23, 8, nil},
		{16, 8, 2, emptyPlus128},
		{37, 23, 8, emptyPlus128},
	}
	for _, c := range cases {
		placement := "hash"
		if c.part != nil {
			placement = "empty+128"
		}
		t.Run(fmt.Sprintf("grid=%dx%d/workers=%d/%s", c.rows, c.cols, c.workers, placement), func(t *testing.T) {
			g := gen.Grid(c.rows, c.cols)
			n := g.NumVertices()
			cfg := Config{Workers: c.workers}
			if c.part != nil {
				cfg.Partition = c.part(n, c.workers)
			}
			counted := cfg
			counted.defaults(n)
			owned := make([]int, c.workers)
			for _, w := range counted.Partition {
				owned[w]++
			}
			if c.part != nil {
				if owned[0] != 0 || owned[1] != 128 {
					t.Fatalf("owned counts %v, want worker 0 empty and worker 1 at 128", owned)
				}
			} else if !slices.ContainsFunc(owned, func(k int) bool { return k%64 != 0 }) {
				t.Fatalf("owned counts %v are all multiples of 64: no partial bitset word under test", owned)
			}
			source := graph.V(n / 3)
			res := checkAgainstReference(t, g, ssspProg(source), cfg, sameInt32)
			want := graph.BFSLevels(g, source)
			dist, _, err := SSSP(g, source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if res.States[v] != want[v] || dist[v] != want[v] {
					t.Fatalf("dist(%d): program %d, SSSP %d, BFS %d", v, res.States[v], dist[v], want[v])
				}
			}
		})
	}
}

// TestSteadyStateAllocsPerRound: a steady-state PageRank superstep on the
// dense path must allocate (almost) nothing. Measured differentially — two
// runs on the same graph differing only in superstep count — so setup costs
// (graph, buffers, gang) cancel and only the per-round increment remains.
func TestSteadyStateAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	g := gen.RMAT(9, 8, 5)
	run := func(iters int) {
		if _, _, err := PageRank(g, iters, Config{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	const short, long = 10, 60
	aShort := testing.AllocsPerRun(3, func() { run(short) })
	aLong := testing.AllocsPerRun(3, func() { run(long) })
	perRound := (aLong - aShort) / float64(long-short)
	if math.IsNaN(perRound) || perRound > 2 {
		t.Fatalf("steady-state supersteps allocate %.2f allocs/round, want ≤ 2 (short=%v long=%v)", perRound, aShort, aLong)
	}
	t.Logf("steady-state PageRank: %.3f allocs/round", perRound)
}

// TestSteadyStateAllocsPerThinFrontierRound: the same ≤ 2 allocs/round bound
// for supersteps whose frontier is a few vertices out of thousands. SSSP
// sweeps a lattice in about rows+cols supersteps, so two lattices of equal
// width and different length differ only in the number of thin rounds.
func TestSteadyStateAllocsPerThinFrontierRound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	short, long := gen.Grid(256, 8), gen.Grid(1024, 8)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var steps [2]int
			run := func(i int, g *graph.Graph) {
				_, res, err := SSSP(g, 0, Config{Workers: workers, MaxSupersteps: 4096})
				if err != nil {
					t.Fatal(err)
				}
				steps[i] = res.Supersteps
			}
			aShort := testing.AllocsPerRun(3, func() { run(0, short) })
			aLong := testing.AllocsPerRun(3, func() { run(1, long) })
			perRound := (aLong - aShort) / float64(steps[1]-steps[0])
			if math.IsNaN(perRound) || perRound > 2 {
				t.Fatalf("thin-frontier supersteps allocate %.2f allocs/round, want ≤ 2 (short=%v long=%v over %d vs %d supersteps)", perRound, aShort, aLong, steps[0], steps[1])
			}
			t.Logf("thin-frontier SSSP: %.3f allocs/round over %d extra supersteps", perRound, steps[1]-steps[0])
		})
	}
}
