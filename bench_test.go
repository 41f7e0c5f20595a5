// Benchmarks reproducing the measured side of every table, figure and claim
// in the paper (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
// for recorded results). Each benchmark measures the core operation of one
// experiment; custom per-op metrics (bytes, peak embeddings, messages) are
// attached via b.ReportMetric. The full paper-style tables are printed by
// `go run ./cmd/graphbench all`.
package graphsys_test

import (
	"math/rand"
	"sync"
	"testing"

	"graphsys/internal/blogel"
	"graphsys/internal/cluster"
	"graphsys/internal/core"
	"graphsys/internal/embed"
	"graphsys/internal/fsm"
	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/gpusim"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/gthinkerq"
	"graphsys/internal/match"
	"graphsys/internal/mining"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/quegel"
	"graphsys/internal/serve"
	"graphsys/internal/tensor"
	"graphsys/internal/tthinker"
)

// ---- shared fixtures (built once) ----

var fixtures struct {
	once      sync.Once
	ba        *graph.Graph // BA(400,8): subgraph-search workloads
	baBig     *graph.Graph // BA(1000,6): matching-order workloads
	labeled   *graph.Graph // labeled ER(250): FSM workloads
	molecules *graph.TransactionDB
	task      *gnn.Task // community node classification
	triangle  *graph.Graph
	cycle4    *graph.Graph
}

func fx() *struct {
	once      sync.Once
	ba        *graph.Graph
	baBig     *graph.Graph
	labeled   *graph.Graph
	molecules *graph.TransactionDB
	task      *gnn.Task
	triangle  *graph.Graph
	cycle4    *graph.Graph
} {
	fixtures.once.Do(func() {
		fixtures.ba = gen.BarabasiAlbert(400, 8, 1)
		fixtures.baBig = gen.BarabasiAlbert(1000, 6, 2)
		fixtures.labeled = gen.WithRandomLabels(gen.ErdosRenyi(250, 750, 3), 3, 4)
		fixtures.molecules = gen.MoleculeDB(80, 9, 4, 0.9, 5)
		fixtures.task = gnn.SyntheticCommunityTask(300, 3, 2, 0.3, 17)
		fixtures.triangle = graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})
		fixtures.cycle4 = graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	})
	return &fixtures
}

// ---- Figure 1: the four pipeline paths ----

func BenchmarkFig1_Path1_VertexAnalytics(b *testing.B) {
	g := fx().ba
	p := core.NewPipeline(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PageRank(10)
	}
}

func BenchmarkFig1_Path2_EmbeddingsPlusClassifier(b *testing.B) {
	t := fx().task
	p := core.NewPipeline(t.G, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb := embed.DeepWalk(t.G, 2, 10, embed.SkipGramConfig{Dim: 8, Epochs: 1, Seed: int64(i)})
		clf := p.TrainNodeClassifier(emb, t.Labels, t.TrainMask, 1)
		_ = clf.Accuracy(emb, t.Labels, t.TestMask)
	}
}

func BenchmarkFig1_Path3_StructureAnalytics(b *testing.B) {
	g := fx().ba
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 4})
		if res.Count == 0 {
			b.Fatal("no cliques")
		}
	}
}

func BenchmarkFig1_Path4_GraphClassification(b *testing.B) {
	db := fx().molecules
	trainMask := make([]bool, db.Len())
	for i := range trainMask {
		trainMask[i] = i%3 != 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.GraphClassification(db, trainMask, 16, 3, 4, 2)
	}
}

// ---- Table 1 ----

func BenchmarkTable1_BFSvsDFS(b *testing.B) {
	g := fx().ba
	b.Run("BFS-extension", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			_, stats := mining.CountCliquesBFS(g, 4, mining.Config{Workers: 4})
			peak = stats.Peak
		}
		b.ReportMetric(float64(peak), "peak-embeddings")
	})
	b.Run("DFS-backtracking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mining.CountCliquesDFS(g, 4)
		}
		b.ReportMetric(0, "peak-embeddings")
	})
	b.Run("task-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 4, Budget: 256})
		}
	})
}

func BenchmarkTable1_MatchingOrder(b *testing.B) {
	g := fx().baBig
	pattern := graph.FromEdges(4, [][2]graph.V{{0, 2}, {1, 2}, {2, 3}, {0, 3}, {1, 3}})
	plans := map[string]*match.Plan{
		"naive":     match.NaivePlan(pattern),
		"greedy":    match.GreedyPlan(pattern),
		"optimized": match.OptimizedPlan(pattern),
	}
	for _, name := range []string{"naive", "greedy", "optimized"} {
		plan := plans[name]
		b.Run(name, func(b *testing.B) {
			var stats match.Stats
			for i := 0; i < b.N; i++ {
				_, stats = match.Count(g, plan, 4)
			}
			b.ReportMetric(float64(stats.Candidates), "candidates")
		})
	}
}

func BenchmarkTable1_FSM(b *testing.B) {
	g := fx().labeled
	b.Run("single-graph-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fsm.MineSingleGraphSerial(g, fsm.MineConfig{MinSupport: 20, MaxEdges: 3})
		}
	})
	b.Run("single-graph-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fsm.MineSingleGraph(g, fsm.MineConfig{MinSupport: 20, MaxEdges: 3, Workers: 8})
		}
	})
	b.Run("transactional", func(b *testing.B) {
		db := fx().molecules
		for i := 0; i < b.N; i++ {
			_ = fsm.MineTransactions(db, fsm.MineConfig{MinSupport: 20, MaxEdges: 4, Workers: 8})
		}
	})
}

func BenchmarkTable1_OnlineQuery(b *testing.B) {
	g := fx().baBig
	light := serve.Request[*graph.Graph]{Query: fx().triangle}
	start := func(b *testing.B) *gthinkerq.Engine {
		eng, err := gthinkerq.NewEngine(g, serve.Options{Workers: 4, Policy: serve.RoundRobin})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = eng.Close() })
		return eng
	}
	query := func(b *testing.B, eng *gthinkerq.Engine, req serve.Request[*graph.Graph]) *serve.Ticket[int64] {
		tk, err := eng.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		return tk
	}
	b.Run("concurrent", func(b *testing.B) {
		eng := start(b)
		heavy := query(b, eng, serve.Request[*graph.Graph]{Query: gen.Clique(4)})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, eng, light).Wait()
		}
		b.StopTimer()
		heavy.Wait()
	})
	b.Run("isolated", func(b *testing.B) {
		eng := start(b)
		for i := 0; i < b.N; i++ {
			query(b, eng, light).Wait()
		}
	})
}

func BenchmarkTable1_GPU(b *testing.B) {
	g := fx().ba
	plan := match.OptimizedPlan(fx().cycle4)
	ample := &gpusim.Device{NumSMs: 8, WarpSize: 32, MemorySlots: 1 << 30}
	scarce := &gpusim.Device{NumSMs: 8, WarpSize: 32, MemorySlots: 4096}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % 8
	}
	b.Run("BFS-ample", func(b *testing.B) {
		var m gpusim.Metrics
		for i := 0; i < b.N; i++ {
			_, m = gpusim.BFSMatch(g, plan, ample)
		}
		b.ReportMetric(float64(m.PeakMemory), "peak-slots")
	})
	b.Run("partitionedBFS-ample", func(b *testing.B) {
		var m gpusim.Metrics
		for i := 0; i < b.N; i++ {
			_, m = gpusim.PartitionedBFSMatch(g, plan, ample, assign, 8)
		}
		b.ReportMetric(float64(m.PeakMemory), "peak-slots")
	})
	b.Run("AIMD-scarce", func(b *testing.B) {
		var m gpusim.Metrics
		for i := 0; i < b.N; i++ {
			_, m = gpusim.AIMDMatch(g, plan, scarce)
		}
		b.ReportMetric(float64(m.HostSpillSlots), "host-spill-slots")
	})
	b.Run("warpDFS", func(b *testing.B) {
		var m gpusim.Metrics
		for i := 0; i < b.N; i++ {
			_, m = gpusim.DFSWarpMatch(g, plan, scarce)
		}
		b.ReportMetric(float64(m.RandomAccesses), "random-accesses")
	})
	b.Run("hybrid-scarce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = gpusim.HybridMatch(g, plan, scarce)
		}
	})
}

// ---- Table 2 ----

func BenchmarkTable2_Partitioning(b *testing.B) {
	task := fx().task
	parts := map[string]*partition.Partition{
		"hash":    partition.Hash(task.G, 4),
		"metis":   partition.Metis(task.G, 4),
		"ldg":     partition.LDG(task.G, 4),
		"voronoi": partition.BFSVoronoi(task.G, task.TrainSeeds(), 4),
	}
	for _, name := range []string{"hash", "ldg", "metis", "voronoi"} {
		p := parts[name]
		b.Run(name, func(b *testing.B) {
			var res gnndist.DistResult
			for i := 0; i < b.N; i++ {
				res, _ = gnndist.TrainSync(task, gnndist.TrainerConfig{Workers: 4, TimeBudget: 5, Seed: 7, Part: p})
			}
			b.ReportMetric(float64(res.Net.Bytes), "net-bytes")
			b.ReportMetric(res.RemoteFrac, "remote-frac")
		})
	}
}

func BenchmarkTable2_Sampling(b *testing.B) {
	task := fx().task
	for _, fanout := range []int{2, 8, 32} {
		fanout := fanout
		b.Run(map[int]string{2: "fanout2", 8: "fanout8", 32: "fanout32"}[fanout], func(b *testing.B) {
			var res gnndist.DistResult
			for i := 0; i < b.N; i++ {
				res, _ = gnndist.TrainSync(task, gnndist.TrainerConfig{
					Workers: 4, TimeBudget: 5, Seed: 8, Fanouts: []int{fanout, fanout}})
			}
			b.ReportMetric(float64(res.Net.Bytes), "net-bytes")
		})
	}
}

func BenchmarkTable2_Caching(b *testing.B) {
	task := fx().task
	for _, size := range []int{0, 256} {
		size := size
		name := "nocache"
		if size > 0 {
			name = "cache256"
		}
		b.Run(name, func(b *testing.B) {
			var res gnndist.DistResult
			for i := 0; i < b.N; i++ {
				res, _ = gnndist.TrainSync(task, gnndist.TrainerConfig{
					Workers: 4, TimeBudget: 5, Seed: 9, CacheSize: size})
			}
			b.ReportMetric(float64(res.Net.Bytes), "net-bytes")
		})
	}
}

func BenchmarkTable2_Pipelining(b *testing.B) {
	// fixed stage-duration matrix: 3 stages × 64 batches with a fetch
	// bottleneck, the ByteGNN scenario
	times := make(gnndist.StageTimes, 3)
	rng := rand.New(rand.NewSource(1))
	for s := range times {
		times[s] = make([]float64, 64)
		for bidx := range times[s] {
			times[s][bidx] = 1 + rng.Float64()
			if s == 1 {
				times[s][bidx] *= 3 // fetch-bound
			}
		}
	}
	b.Run("sequential", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			m = gnndist.SequentialMakespan(times)
		}
		b.ReportMetric(m, "makespan")
	})
	b.Run("pipelined", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			m = gnndist.PipelinedMakespan(times)
		}
		b.ReportMetric(m, "makespan")
	})
}

func BenchmarkTable2_Staleness(b *testing.B) {
	task := fx().task
	speeds := []float64{1, 1, 1, 5}
	b.Run("sync", func(b *testing.B) {
		var res gnndist.DistResult
		for i := 0; i < b.N; i++ {
			res, _ = gnndist.TrainSync(task, gnndist.TrainerConfig{
				Workers: 4, TimeBudget: 20, WorkerSpeed: speeds, Seed: 10})
		}
		b.ReportMetric(float64(res.Steps), "grad-steps")
		b.ReportMetric(res.TestAcc, "accuracy")
	})
	b.Run("bounded-stale", func(b *testing.B) {
		var res gnndist.DistResult
		for i := 0; i < b.N; i++ {
			res, _ = gnndist.TrainBoundedStale(task, gnndist.TrainerConfig{
				Workers: 4, TimeBudget: 20, WorkerSpeed: speeds, Staleness: 4, Seed: 10})
		}
		b.ReportMetric(float64(res.Steps), "grad-steps")
		b.ReportMetric(res.TestAcc, "accuracy")
	})
	b.Run("sancus", func(b *testing.B) {
		var res gnndist.DistResult
		for i := 0; i < b.N; i++ {
			res, _ = gnndist.TrainSancus(task, gnndist.TrainerConfig{
				Workers: 4, TimeBudget: 100, WorkerSpeed: speeds, SancusTau: 5e-3, Seed: 10})
		}
		b.ReportMetric(float64(res.Skipped), "skipped-bcasts")
	})
}

func BenchmarkTable2_Quantization(b *testing.B) {
	task := fx().task
	run := func(b *testing.B, bits int, ec bool) {
		var res gnndist.DistResult
		for i := 0; i < b.N; i++ {
			res, _ = gnndist.TrainSync(task, gnndist.TrainerConfig{
				Workers: 4, TimeBudget: 10, Seed: 11, QuantBits: bits, QuantCompensate: ec})
		}
		b.ReportMetric(float64(res.GradBytes), "grad-bytes")
		b.ReportMetric(res.TestAcc, "accuracy")
	}
	b.Run("fp32", func(b *testing.B) { run(b, 32, false) })
	b.Run("int8", func(b *testing.B) { run(b, 8, false) })
	b.Run("int4-ec", func(b *testing.B) { run(b, 4, true) })
}

func BenchmarkTable2_PushPull(b *testing.B) {
	task := fx().task
	const d, hidden, k = 256, 16, 4
	x := tensor.Xavier(task.G.NumVertices(), d, 1)
	w1 := tensor.Xavier(d, hidden, 2)
	part := partition.Hash(task.G, k)
	fd := partition.NewFeatureDim(d, k)
	batch := task.TrainSeeds()[:24]
	b.Run("pull", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			net := cluster.NewNetwork(k)
			_, bytes = gnndist.PullLayer1(net, part, x, w1, batch, 0)
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
	b.Run("push-pull", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			net := cluster.NewNetwork(k)
			_, bytes = gnndist.PushPullLayer1(net, fd, x, w1, batch, 0)
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
}

func BenchmarkTable2_FullGraph(b *testing.B) {
	task := fx().task
	b.Run("distgnn-sync", func(b *testing.B) {
		var res gnndist.DistGNNResult
		for i := 0; i < b.N; i++ {
			res = gnndist.TrainDistGNN(task, gnndist.DistGNNConfig{Workers: 4, Epochs: 10, RefreshEvery: 1, Seed: 12})
		}
		b.ReportMetric(float64(res.Net.Bytes), "boundary-bytes")
	})
	b.Run("distgnn-delayed4", func(b *testing.B) {
		var res gnndist.DistGNNResult
		for i := 0; i < b.N; i++ {
			res = gnndist.TrainDistGNN(task, gnndist.DistGNNConfig{Workers: 4, Epochs: 10, RefreshEvery: 4, Seed: 12})
		}
		b.ReportMetric(float64(res.Net.Bytes), "boundary-bytes")
	})
	b.Run("hongtu-offload", func(b *testing.B) {
		const hidden = 16
		l1w := tensor.Xavier(task.X.Cols, hidden, 1)
		l1b := tensor.New(1, hidden)
		l2w := tensor.Xavier(hidden, task.NumClasses, 2)
		l2b := tensor.New(1, task.NumClasses)
		var st gnndist.OffloadStats
		for i := 0; i < b.N; i++ {
			_, st = gnndist.OffloadedGCNForward(task.G, task.X, l1w, l1b, l2w, l2b, 32)
		}
		b.ReportMetric(float64(st.DevicePeakFloats), "device-peak-floats")
	})
}

func BenchmarkTable2_CommPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var ts []cluster.Transfer
	for i := 0; i < 64; i++ {
		from, to := rng.Intn(8), rng.Intn(8)
		if from != to {
			ts = append(ts, cluster.Transfer{From: from, To: to, Size: int64(1000 + rng.Intn(9000))})
		}
	}
	setup := func() *cluster.Network {
		net := cluster.NewNetwork(8)
		cluster.RingTopology(net, 4, 0.05)
		net.SetLinkCost(0, 4, 5)
		net.SetLinkCost(4, 0, 5)
		return net
	}
	b.Run("direct", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			net := setup()
			cost = cluster.DirectPlan(ts).Execute(net, ts)
		}
		b.ReportMetric(cost, "weighted-cost")
	})
	b.Run("dgcl-planned", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			net := setup()
			cost = cluster.PlanRelay(net, ts).Execute(net, ts)
		}
		b.ReportMetric(cost, "weighted-cost")
	})
}

func BenchmarkTable2_Serverless(b *testing.B) {
	task := fx().task
	seeds := task.TrainSeeds()
	pool := cluster.NewLambdaPool(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Map(16, func(int) int64 { return 1 }, func(j int) {
			rng := rand.New(rand.NewSource(int64(j)))
			sub := gnn.NeighborSample(task.G, []graph.V{seeds[j%len(seeds)]}, []int{8, 8}, rng)
			m := gnn.NewModel(sub.Graph, gnn.GCN, []int{task.X.Cols, 16, task.NumClasses}, 1)
			idx := make([]int, len(sub.NewToOld))
			for k, v := range sub.NewToOld {
				idx[k] = int(v)
			}
			m.Forward(tensor.SelectRows(task.X, idx))
		})
	}
	b.StopTimer()
	model := cluster.DefaultCostModel()
	b.ReportMetric(model.GPUCost(4, 1)/model.LambdaCost(100, 1, 4, 1), "gpu-vs-lambda-$-ratio")
}

// ---- claims ----

func BenchmarkClaim_TriangleMRvsSerial(b *testing.B) {
	g := fx().ba
	b.Run("mapreduce-style", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			_, res, _ := pregel.TriangleCountMR(g, pregel.Config{Workers: 4})
			msgs = res.Net.Messages + res.Net.LocalMessages
		}
		b.ReportMetric(float64(msgs), "messages")
	})
	b.Run("serial-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = graph.TriangleCount(g)
		}
		b.ReportMetric(0, "messages")
	})
}

func BenchmarkClaim_TLAVComplexity(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(map[int]string{1000: "n1000", 4000: "n4000"}[n], func(b *testing.B) {
			g := gen.ErdosRenyi(n, int64(4*n), int64(n))
			b.ResetTimer()
			var rounds int
			for i := 0; i < b.N; i++ {
				_, res, _ := pregel.HashMinCC(g, pregel.Config{Workers: 4})
				rounds = res.Supersteps
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

func BenchmarkClaim_StructVsEmbed(b *testing.B) {
	task := fx().task
	p := core.NewPipeline(task.G, 4)
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sf := p.StructuralFeatureMatrix()
			clf := p.TrainNodeClassifier(sf, task.Labels, task.TrainMask, 1)
			_ = clf.Accuracy(sf, task.Labels, task.TestMask)
		}
	})
	b.Run("deepwalk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emb := embed.DeepWalk(task.G, 2, 10, embed.SkipGramConfig{Dim: 8, Epochs: 1, Seed: 2})
			clf := p.TrainNodeClassifier(emb, task.Labels, task.TrainMask, 1)
			_ = clf.Accuracy(emb, task.Labels, task.TestMask)
		}
	})
}

func BenchmarkClaim_SubgraphFeatures(b *testing.B) {
	task := fx().task
	p := core.NewPipeline(task.G, 4)
	b.Run("plain-gcn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.TrainGNN(task, gnn.GCN, 8, 15, 3)
		}
	})
	b.Run("gcn-plus-structural", func(b *testing.B) {
		sf := graph.ComputeStructuralFeatures(task.G)
		aug := tensor.ConcatCols(task.X, tensor.FromRows(sf.Matrix()))
		t2 := &gnn.Task{G: task.G, X: aug, Labels: task.Labels,
			TrainMask: task.TrainMask, TestMask: task.TestMask, NumClasses: task.NumClasses}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.TrainGNN(t2, gnn.GCN, 8, 15, 3)
		}
	})
}

// ---- ablations ----

func BenchmarkAblation_TaskSplit(b *testing.B) {
	g := fx().ba
	b.Run("no-split", func(b *testing.B) {
		var max int64
		for i := 0; i < b.N; i++ {
			_, stats := tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 8})
			max = stats.MaxTaskTicks
		}
		b.ReportMetric(float64(max), "max-task-ticks")
	})
	b.Run("budget256", func(b *testing.B) {
		var max int64
		for i := 0; i < b.N; i++ {
			_, stats := tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 8, Budget: 256})
			max = stats.MaxTaskTicks
		}
		b.ReportMetric(float64(max), "max-task-ticks")
	})
}

func BenchmarkAblation_Combiner(b *testing.B) {
	g := fx().baBig
	b.Run("with-combiner", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			_, res, _ := pregel.HashMinCC(g, pregel.Config{Workers: 4})
			msgs = res.Net.Messages
		}
		b.ReportMetric(float64(msgs), "messages")
	})
	b.Run("without-combiner", func(b *testing.B) {
		prog := pregel.Program[int32, int32]{
			Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
			Compute: func(ctx *pregel.Context[int32], v graph.V, state *int32, msgs []int32) {
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
		}
		var msgs int64
		for i := 0; i < b.N; i++ {
			res, _ := pregel.Run(g, prog, pregel.Config{Workers: 4})
			msgs = res.Net.Messages
		}
		b.ReportMetric(float64(msgs), "messages")
	})
}

func BenchmarkAblation_Ordering(b *testing.B) {
	g := fx().ba
	b.Run("bk-pivot", func(b *testing.B) {
		var ticks int64
		for i := 0; i < b.N; i++ {
			_, stats := tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 4})
			ticks = stats.Ticks
		}
		b.ReportMetric(float64(ticks), "search-nodes")
	})
	b.Run("bk-no-pivot", func(b *testing.B) {
		var ticks int64
		for i := 0; i < b.N; i++ {
			_, stats := tthinker.MaximalCliquesNoPivot(g, false, tthinker.Config{Workers: 4})
			ticks = stats.Ticks
		}
		b.ReportMetric(float64(ticks), "search-nodes")
	})
}

// ---- extensions ----

func BenchmarkExt_BlogelCC(b *testing.B) {
	// high-diameter grid: the Blogel-favourable case
	g := gen.Grid(60, 40)
	b.Run("vertex-centric", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			_, res, _ := pregel.HashMinCC(g, pregel.Config{Workers: 4, MaxSupersteps: 100000})
			rounds = res.Supersteps
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("block-centric", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			blocks := blogel.Build(g, partition.Metis(g, 16))
			res, _ := blocks.ConnectedComponents(4)
			rounds = res.Supersteps
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

func BenchmarkExt_QuegelBatching(b *testing.B) {
	g := fx().baBig
	rng := rand.New(rand.NewSource(4))
	var queries []quegel.Query
	for i := 0; i < 16; i++ {
		queries = append(queries, quegel.Query{
			Src: graph.V(rng.Intn(g.NumVertices())), Dst: graph.V(rng.Intn(g.NumVertices()))})
	}
	cfg := pregel.Config{Workers: 4}
	b.Run("batched", func(b *testing.B) {
		var st quegel.Stats
		for i := 0; i < b.N; i++ {
			_, st, _ = quegel.AnswerBatched(g, queries, cfg)
		}
		b.ReportMetric(float64(st.Supersteps), "rounds")
	})
	b.Run("sequential", func(b *testing.B) {
		var st quegel.Stats
		for i := 0; i < b.N; i++ {
			_, st, _ = quegel.AnswerSequential(g, queries, cfg)
		}
		b.ReportMetric(float64(st.Supersteps), "rounds")
	})
}

func BenchmarkExt_FaultTolerance(b *testing.B) {
	g := fx().baBig
	b.Run("no-failure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = pregel.HashMinCC(g, pregel.Config{Workers: 4})
		}
	})
	b.Run("failure-with-ckpt2", func(b *testing.B) {
		prog := pregel.Program[int32, int32]{
			Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
			Compute: func(ctx *pregel.Context[int32], v graph.V, state *int32, msgs []int32) {
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
		var ckpt int64
		for i := 0; i < b.N; i++ {
			res, _ := pregel.Run(g, prog, pregel.Config{
				Workers: 4, CheckpointEvery: 2,
				RunOptions: cluster.RunOptions{Faults: &cluster.FaultPlan{CrashAtRound: 3}},
			})
			ckpt = res.CheckpointBytes
		}
		b.ReportMetric(float64(ckpt), "ckpt-bytes")
	})
}

func BenchmarkExt_GraphClassification(b *testing.B) {
	db := fx().molecules
	trainMask := make([]bool, db.Len())
	for i := range trainMask {
		trainMask[i] = i%4 < 2
	}
	b.Run("gin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gc := gnn.TrainGraphClassifier(db, trainMask, gnn.GraphClassConfig{
				Kind: gnn.GIN, Hidden: 8, Epochs: 5, Seed: 1})
			_ = gc.Accuracy(db, nil)
		}
	})
	b.Run("fsm-features", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.GraphClassification(db, trainMask, 16, 3, 4, 2)
		}
	})
}

func BenchmarkExt_FeatureCompression(b *testing.B) {
	task := fx().task
	for _, bits := range []int{32, 4} {
		bits := bits
		name := "fp32"
		if bits != 32 {
			name = "int4"
		}
		b.Run(name, func(b *testing.B) {
			var res gnndist.DistResult
			for i := 0; i < b.N; i++ {
				res, _ = gnndist.TrainSync(task, gnndist.TrainerConfig{
					Workers: 4, TimeBudget: 5, Seed: 21, FeatureBits: bits})
			}
			b.ReportMetric(float64(res.Net.Bytes), "net-bytes")
		})
	}
}
