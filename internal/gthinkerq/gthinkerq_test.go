package gthinkerq

import (
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/match"
	"graphsys/internal/serve"
)

var (
	triangle = graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})
	edge     = graph.FromEdges(2, [][2]graph.V{{0, 1}})
	clique5  = gen.Clique(5)
)

// startEngine starts a round-robin engine over g and closes it when the test
// ends.
func startEngine(t *testing.T, g *graph.Graph, workers int) *Engine {
	t.Helper()
	eng, err := NewEngine(g, serve.Options{Workers: workers, Policy: serve.RoundRobin})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// submit admits pattern p and fails the test on a rejection.
func submit(t *testing.T, eng *Engine, p *graph.Graph) *serve.Ticket[int64] {
	t.Helper()
	tk, err := eng.Submit(serve.Request[*graph.Graph]{Query: p})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return tk
}

// wait returns the ticket's match count and fails the test on an error.
func wait(t *testing.T, tk *serve.Ticket[int64]) int64 {
	t.Helper()
	n, err := tk.Wait()
	if err != nil {
		t.Fatalf("query %d: %v", tk.ID(), err)
	}
	return n
}

func TestQueryCountsMatchOffline(t *testing.T) {
	g := gen.ErdosRenyi(80, 600, 1)
	eng := startEngine(t, g, 4)
	for _, p := range []*graph.Graph{edge, triangle} {
		want, _ := match.Count(g, match.OptimizedPlan(p), 4)
		if got := wait(t, submit(t, eng, p)); got != want {
			t.Fatalf("online count %d, offline %d", got, want)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 2)
	eng := startEngine(t, g, 8)
	// submit a burst of queries of mixed weight
	var tks []*serve.Ticket[int64]
	for i := 0; i < 10; i++ {
		p := edge
		if i%2 == 0 {
			p = triangle
		}
		tks = append(tks, submit(t, eng, p))
	}
	wantEdge, _ := match.Count(g, match.OptimizedPlan(edge), 4)
	wantTri, _ := match.Count(g, match.OptimizedPlan(triangle), 4)
	for i, tk := range tks {
		want := wantEdge
		if i%2 == 0 {
			want = wantTri
		}
		if got := wait(t, tk); got != want {
			t.Fatalf("query %d: got %d want %d", i, got, want)
		}
		if tk.Latency() <= 0 {
			t.Fatalf("query %d: nonpositive latency", i)
		}
	}
}

func TestHeavyQueryDoesNotBlockLight(t *testing.T) {
	g := gen.BarabasiAlbert(800, 10, 3)
	eng := startEngine(t, g, 4)
	heavy := submit(t, eng, clique5) // expensive on a dense hub graph
	light := submit(t, eng, edge)
	// the light query must complete; if it had to wait for the heavy one
	// this would take far longer (covered quantitatively in the benchmark)
	if wait(t, light) == 0 {
		t.Fatal("light query found nothing")
	}
	wait(t, heavy)
}

func TestEmptyAndUnmatchablePatterns(t *testing.T) {
	g := gen.Grid(4, 4)
	eng := startEngine(t, g, 2)
	if got := wait(t, submit(t, eng, graph.NewBuilder(0, false).Build())); got != 0 {
		t.Fatalf("empty pattern count %d", got)
	}
	// triangle in a grid: no roots survive at depth 2+, count 0
	if got := wait(t, submit(t, eng, triangle)); got != 0 {
		t.Fatalf("triangle in grid = %d", got)
	}
	// pattern needing degree 5 in a grid (max degree 4): no feasible roots
	star5 := graph.FromEdges(6, [][2]graph.V{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	if got := wait(t, submit(t, eng, star5)); got != 0 {
		t.Fatalf("star5 in grid = %d", got)
	}
}

func TestQueryCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 12, 7)
	eng := startEngine(t, g, 2)
	heavy := submit(t, eng, gen.Clique(5))
	heavy.Cancel()
	// the query must still reach a terminal state (tasks drain as no-ops)
	<-heavy.Done()
	if !heavy.Canceled() {
		t.Fatal("cancel flag lost")
	}
	// the engine keeps serving other queries afterwards
	if wait(t, submit(t, eng, triangle)) == 0 {
		t.Fatal("engine unusable after cancellation")
	}
}
