package main

import (
	"math"

	"graphsys/internal/graph"
)

// Serial reference implementations the benchmark checks the engines
// against. They share no code with the program under test.

// serialPageRank is damped (d = 0.85) power iteration with the engine's
// semantics: iters updates from a uniform start, dangling vertices keep
// their mass.
func serialPageRank(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	const d = 0.85
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		clear(next)
		for u := 0; u < n; u++ {
			deg := g.Degree(graph.V(u))
			if deg == 0 {
				continue
			}
			share := rank[u] / float64(deg)
			for _, w := range g.Neighbors(graph.V(u)) {
				next[w] += share
			}
		}
		for v := range next {
			next[v] = (1-d)/float64(n) + d*next[v]
		}
		rank, next = next, rank
	}
	return rank
}

// unionFindCC labels every vertex with the smallest vertex id of its
// connected component.
func unionFindCC(g *graph.Graph) []int32 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(graph.V(u)) {
			a, b := find(int32(u)), find(int32(w))
			if a != b {
				// the smaller id becomes the root, so a root is its set's minimum
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	out := make([]int32, n)
	for v := range out {
		out[v] = find(int32(v))
	}
	return out
}

// serialBFS returns hop distances from src, -1 for unreachable vertices.
func serialBFS(g *graph.Graph, src graph.V) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []graph.V{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
