package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"graphsys/internal/graph"
	"graphsys/internal/pregel"
)

// pregelTrace is what a traced run learns about one pregel.Run call from
// the outside: spans of the program's own Compute calls.
type pregelTrace struct {
	wall      time.Duration // the pregel.Run call
	compute   time.Duration // Σ over supersteps of the slowest worker's first-to-last Compute span
	skew      time.Duration // Σ over supersteps of the rest of the span all workers cover together
	sync      time.Duration // Σ of gaps from a superstep's last Compute to the next one's first
	send      time.Duration // time inside the ctx.Send loops
	neighbors time.Duration // time inside ctx.Neighbors
	imbalance float64       // Σ slowest span ÷ Σ mean span (idle workers count as 0)
	residual  float64       // 1 − (compute + skew + sync) ÷ wall
}

// tracer records per-worker, per-superstep Compute spans. Workers are told
// apart by their pregel.Context, which the engine keeps for the whole run;
// each worker writes only its own slot.
type tracer[M any] struct {
	base  time.Time
	slots [workers]atomic.Pointer[pregel.Context[M]]
	ws    [workers]workerSpans
}

type workerSpans struct {
	first, last     []int64 // per superstep, ns since base plus one; 0 = no call
	send, neighbors int64
	_               [64]byte // keep the workers' hot fields on separate cache lines
}

func newTracer[M any]() *tracer[M] { return &tracer[M]{base: time.Now()} }

func (t *tracer[M]) now() int64 { return int64(time.Since(t.base)) + 1 }

// worker returns the span slot of the worker that owns ctx.
func (t *tracer[M]) worker(ctx *pregel.Context[M]) *workerSpans {
	for i := range t.slots {
		if t.slots[i].Load() == ctx {
			return &t.ws[i]
		}
	}
	for i := range t.slots {
		if t.slots[i].CompareAndSwap(nil, ctx) || t.slots[i].Load() == ctx {
			return &t.ws[i]
		}
	}
	panic(fmt.Sprintf("pregel ran more than %d worker contexts", workers))
}

// enter marks the start of a Compute call and returns the caller's slot and
// superstep.
func (t *tracer[M]) enter(ctx *pregel.Context[M]) (*workerSpans, int) {
	w := t.worker(ctx)
	ss := ctx.Superstep()
	ts := t.now()
	for len(w.first) <= ss {
		w.first = append(w.first, 0)
		w.last = append(w.last, 0)
	}
	if w.first[ss] == 0 {
		w.first[ss] = ts
	}
	return w, ss
}

func (t *tracer[M]) exit(w *workerSpans, ss int) { w.last[ss] = t.now() }

// sendToNeighbors is ctx.SendToNeighbors with the neighbor read and the
// send loop timed apart.
func (t *tracer[M]) sendToNeighbors(w *workerSpans, ctx *pregel.Context[M], v graph.V, m M) {
	t0 := t.now()
	ns := ctx.Neighbors(v)
	t1 := t.now()
	for _, u := range ns {
		ctx.Send(u, m)
	}
	w.neighbors += t1 - t0
	w.send += t.now() - t1
}

// summarize folds the spans of a run that took wall.
func (t *tracer[M]) summarize(wall time.Duration) pregelTrace {
	tr := pregelTrace{wall: wall}
	steps := 0
	for i := range t.ws {
		steps = max(steps, len(t.ws[i].first))
		tr.send += time.Duration(t.ws[i].send)
		tr.neighbors += time.Duration(t.ws[i].neighbors)
	}
	var meanSum float64
	prevLast := int64(0)
	for ss := 0; ss < steps; ss++ {
		var maxSpan, sumSpan, minFirst, maxLast int64
		for i := range t.ws {
			w := &t.ws[i]
			if ss >= len(w.first) || w.first[ss] == 0 {
				continue
			}
			span := w.last[ss] - w.first[ss]
			sumSpan += span
			maxSpan = max(maxSpan, span)
			maxLast = max(maxLast, w.last[ss])
			if minFirst == 0 || w.first[ss] < minFirst {
				minFirst = w.first[ss]
			}
		}
		if minFirst == 0 {
			continue
		}
		if prevLast != 0 {
			tr.sync += time.Duration(minFirst - prevLast)
		}
		prevLast = maxLast
		tr.compute += time.Duration(maxSpan)
		tr.skew += time.Duration(maxLast - minFirst - maxSpan)
		meanSum += float64(sumSpan) / workers
	}
	if meanSum > 0 {
		tr.imbalance = float64(tr.compute) / meanSum
	}
	tr.residual = 1 - float64(tr.compute+tr.skew+tr.sync)/float64(wall)
	return tr
}

// The traced programs below repeat the arithmetic of pregel.PageRank,
// HashMinCC and SSSP exactly, so their answers must match the public entry
// points bit for bit.

func tracedPageRank(g *graph.Graph, nv, iters int, cfg pregel.Config) ([]float64, pregelStats, pregelTrace, error) {
	n := float64(nv)
	const d = 0.85
	t := newTracer[float64]()
	prog := pregel.Program[float64, float64]{
		Init: func(g *graph.Graph, v graph.V) float64 { return 1 / n },
		Compute: func(ctx *pregel.Context[float64], v graph.V, state *float64, msgs []float64) {
			w, ss := t.enter(ctx)
			if ss > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				*state = (1-d)/n + d*sum
			}
			if ss < iters {
				if deg := ctx.Degree(v); deg > 0 {
					t.sendToNeighbors(w, ctx, v, *state/float64(deg))
				}
			} else {
				ctx.VoteToHalt()
			}
			t.exit(w, ss)
		},
		Combine: func(a, b float64) float64 { return a + b },
	}
	return runTraced(t, g, prog, cfg, func(s []float64) []float64 { return s })
}

func tracedHashMin(g *graph.Graph, cfg pregel.Config) ([]int32, pregelStats, pregelTrace, error) {
	t := newTracer[int32]()
	prog := pregel.Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
		Compute: func(ctx *pregel.Context[int32], v graph.V, state *int32, msgs []int32) {
			w, ss := t.enter(ctx)
			low := *state
			if ss == 0 {
				t.sendToNeighbors(w, ctx, v, low)
			} else {
				for _, m := range msgs {
					low = min(low, m)
				}
				if low < *state {
					*state = low
					t.sendToNeighbors(w, ctx, v, low)
				}
			}
			ctx.VoteToHalt()
			t.exit(w, ss)
		},
		Combine: func(a, b int32) int32 { return min(a, b) },
	}
	return runTraced(t, g, prog, cfg, func(s []int32) []int32 { return s })
}

func tracedBFS(g *graph.Graph, source graph.V, cfg pregel.Config) ([]int32, pregelStats, pregelTrace, error) {
	const inf = math.MaxInt32
	t := newTracer[int32]()
	prog := pregel.Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 {
			if v == source {
				return 0
			}
			return inf
		},
		Compute: func(ctx *pregel.Context[int32], v graph.V, state *int32, msgs []int32) {
			w, ss := t.enter(ctx)
			best := *state
			for _, m := range msgs {
				best = min(best, m)
			}
			if best < *state || (ss == 0 && v == source) {
				*state = best
				t.sendToNeighbors(w, ctx, v, best+1)
			}
			ctx.VoteToHalt()
			t.exit(w, ss)
		},
		Combine: func(a, b int32) int32 { return min(a, b) },
	}
	return runTraced(t, g, prog, cfg, func(s []int32) []int32 {
		for i, d := range s {
			if d == inf {
				s[i] = -1
			}
		}
		return s
	})
}

func runTraced[S, M any](t *tracer[M], g *graph.Graph, prog pregel.Program[S, M], cfg pregel.Config, finish func([]S) []S) ([]S, pregelStats, pregelTrace, error) {
	t0 := time.Now()
	res, err := pregel.Run(g, prog, cfg)
	wall := time.Since(t0)
	if err != nil {
		return nil, pregelStats{}, pregelTrace{}, err
	}
	return finish(res.States), pregelStats{res.Supersteps, res.Net}, t.summarize(wall), nil
}
