package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/match"
	"graphsys/internal/pregel"
)

var sink uint64

// spinBusy burns CPU in its own frame for d.
//
//go:noinline
func spinBusy(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileAttribution profiles a known busy function and checks that
// the stdlib reader charges its samples to it.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("starting CPU profile: %v", err)
	}
	const busy = 600 * time.Millisecond
	sink = spinBusy(busy)
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	by, err := p.attribute(func(fn string) string {
		if strings.HasSuffix(fn, ".spinBusy") {
			return "busy"
		}
		return ""
	}, "other")
	if err != nil {
		t.Fatal(err)
	}
	total := by["busy"] + by["other"]
	if by["busy"] < 0.5*busy.Seconds() || by["busy"] < 0.8*total {
		t.Fatalf("spinBusy charged %.3fs of %.3fs sampled, want most of %v", by["busy"], total, busy)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"graphsys/internal/graph/gen.RMAT":                    "graph",
		"graphsys/internal/pregel.Run[...].func3":             "pregel",
		"graphsys/internal/cluster.(*Outbox[...]).Send":       "cluster",
		"graphsys/internal/det.SortedKeys[...]":               "",
		"graphsys/internal/gnndist.(*dist).gradStep":          "gnndist",
		"graphsys/internal/gnn.NeighborSample":                "gnn",
		"runtime.mallocgc":                                    "",
		"graphsys/e2ebench.tracedPageRank.func2":              "",
		"graphsys/internal/gthinkerq.(*Engine).exec.func1":    "gthinkerq",
		"graphsys/internal/storage.(*CachedSource).Neighbors": "storage",
		"graphsys/internal/serve.(*Pool[...]).worker":         "serve",
		"graphsys/internal/match.(*Plan).CandidatesForPrefix": "match",
		"graphsys/internal/quegel.AnswerBatched.func2":        "quegel",
		"graphsys/internal/tensor.(*Matrix).MatMul":           "tensor",
		"graphsys/internal/nn.ReLU":                           "nn",
		"graphsys/internal/graphd.Run":                        "",
		"graphsys/internal/pregelx.Run":                       "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median return.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}}, // Python extrapolates below two points
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesTables checks that BENCHMARK.json names exactly
// the metrics the harness reports, with the same units and directions.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not one the harness runs", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, harness runs %d", names, len(workloads))
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}

// TestTracedProgramsMatchEngine checks, on small graphs, that the traced
// benchmark-side programs return the public entry points' answers bit for
// bit, that those agree with the serial oracles, and that the spans add up.
func TestTracedProgramsMatchEngine(t *testing.T) {
	cfg := pregel.Config{Workers: workers, MaxSupersteps: maxSupersteps}
	rm := gen.RMAT(10, 8, 3)
	ranks, _, err := pregel.PageRank(rm, 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tranks, _, tr, err := tracedPageRank(rm, rm.NumVertices(), 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(ranks, tranks) {
		t.Error("traced PageRank differs bitwise from pregel.PageRank")
	}
	for v, x := range serialPageRank(rm, 12) {
		if math.Abs(x-ranks[v]) > prTolerance {
			t.Fatalf("vertex %d: engine %.17g, serial %.17g", v, ranks[v], x)
		}
	}
	if tr.compute <= 0 || tr.sync <= 0 || tr.residual > 0.5 || tr.residual < 0 {
		t.Errorf("PageRank spans do not add up: %+v", tr)
	}

	// two components plus isolated vertices
	b := graph.NewBuilder(40, false)
	for v := graph.V(1); v < 15; v++ {
		b.AddEdge(v-1, v)
	}
	for v := graph.V(21); v < 35; v++ {
		b.AddEdge(v, v-1)
	}
	g := b.Build()
	labels, _, err := pregel.HashMinCC(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tlabels, _, _, err := tracedHashMin(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(labels, tlabels) || !sameInts(labels, unionFindCC(g)) {
		t.Errorf("CC: engine %v, traced %v, union-find %v", labels, tlabels, unionFindCC(g))
	}
	dist, _, err := pregel.SSSP(g, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tdist, _, _, err := tracedBFS(g, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(dist, tdist) || !sameInts(dist, serialBFS(g, 3)) {
		t.Errorf("BFS: engine %v, traced %v, serial %v", dist, tdist, serialBFS(g, 3))
	}
}

// TestNaiveCountMatchesOptimizedPlan checks the subgraph-count oracle
// against the symmetry-broken plan the engine uses, labelled and not.
func TestNaiveCountMatchesOptimizedPlan(t *testing.T) {
	g := gen.WithRandomLabels(gen.BarabasiAlbert(300, 3, 5), serveLabels, 6)
	qg := &queryGen{rng: rand.New(rand.NewSource(7)), n: g.NumVertices()}
	for i := 0; i < 30; i++ {
		q := qg.next()
		if q.class == classHop {
			continue
		}
		want, _ := match.Count(g, match.OptimizedPlan(q.pattern), 2)
		if got := naiveCount(g, q.pattern); got != want {
			t.Errorf("pattern %s: naive count %d, optimized plan %d", q.key, got, want)
		}
	}
}
