package pregel

import (
	"graphsys/internal/cluster"
	"graphsys/internal/det"
	"graphsys/internal/graph"
)

// refResult is what the serial reference reports for one run.
type refResult[S any] struct {
	States     []S
	Supersteps int
	Messages   int64 // combined messages delivered, local and cross-worker
}

// refAggs is the serial reference's aggregator table: the merged values of
// the previous superstep.
type refAggs struct{ prev map[string]float64 }

func (a *refAggs) aggPrev(name string) float64 { return a.prev[name] }

// serialRun is the serial reference executor the engine's communication
// paths are checked against. It runs on one goroutine with no gang, no slot
// tables and no columnar delivery: each superstep it computes every worker's
// owned vertices in rank order, each vertex in ascending id order. Every
// sender worker has its own uncombined cluster.Mailboxes, so after Exchange
// the sender's messages arrive in send order with the sender boundary intact.
// The reference then combines them per sender — first-occurrence positions
// kept, combine(queued, incoming) in send order, keyed by destination vertex
// refined by CombineKey — and delivers them to each vertex in ascending
// sender rank. Aggregators merge in worker-rank order, keys via
// det.SortedKeys. That is the order contract the staged substrate promises
// (DESIGN.md §3.12), so any path that honours it matches bitwise.
func serialRun[S, M any](g *graph.Graph, prog Program[S, M], cfg Config) refResult[S] {
	n := g.NumVertices()
	cfg.defaults(n)
	owned := make([][]graph.V, cfg.Workers)
	for v := 0; v < n; v++ {
		owned[cfg.Partition[v]] = append(owned[cfg.Partition[v]], graph.V(v))
	}
	states := make([]S, n)
	active := make([]bool, n)
	for v := range states {
		if prog.Init != nil {
			states[v] = prog.Init(g, graph.V(v))
		}
		active[v] = true
	}
	aggs := &refAggs{prev: map[string]float64{}}
	boxes := make([]*cluster.Mailboxes[vmsg[M]], cfg.Workers)
	ctxs := make([]*Context[M], cfg.Workers)
	for w := range boxes {
		boxes[w] = cluster.NewMailboxes[vmsg[M]](cluster.NewNetwork(cfg.Workers), nil)
		ctxs[w] = &Context[M]{
			eng: aggs, g: g,
			out:       boxes[w].Outbox(w),
			partition: cfg.Partition,
			aggLocal:  map[string]float64{},
		}
	}
	anyActive := func() bool {
		for _, a := range active {
			if a {
				return true
			}
		}
		return false
	}
	msgs := make([][]M, n)
	res := refResult[S]{States: states}
	for step := 0; step < cfg.MaxSupersteps; step++ {
		res.Supersteps = step + 1
		if !anyActive() {
			res.Supersteps = step
			break
		}
		for w, ctx := range ctxs {
			ctx.superstep = step
			for _, v := range owned[w] {
				if !active[v] {
					continue
				}
				ctx.halted = false
				prog.Compute(ctx, v, &states[v], msgs[v])
				msgs[v] = nil
				if ctx.halted {
					active[v] = false
				}
			}
		}
		next := make([][]M, n)
		var delivered int64
		for _, mb := range boxes { // ascending sender rank
			mb.Exchange()
			for d := 0; d < cfg.Workers; d++ {
				for _, vm := range combineSends(mb.Receive(d), prog) {
					next[vm.to] = append(next[vm.to], vm.m)
					delivered++
				}
			}
		}
		merged := map[string]float64{}
		for _, ctx := range ctxs { // ascending worker rank
			for _, k := range det.SortedKeys(ctx.aggLocal) {
				merged[k] += ctx.aggLocal[k]
			}
			clear(ctx.aggLocal)
		}
		aggs.prev = merged
		res.Messages += delivered
		if delivered == 0 {
			if !anyActive() {
				break
			}
			continue
		}
		for v, ms := range next {
			if ms != nil {
				msgs[v] = ms
				active[v] = true
			}
		}
	}
	return res
}

// combineSends folds one sender's messages to one destination worker with
// the program's combiner: the first message of each combining class keeps
// its position, later ones fold into it in send order.
func combineSends[S, M any](sends []vmsg[M], prog Program[S, M]) []vmsg[M] {
	if prog.Combine == nil {
		return sends
	}
	key := func(vm vmsg[M]) int64 {
		k := int64(vm.to) << 32
		if prog.CombineKey != nil {
			k |= int64(uint32(prog.CombineKey(vm.m)))
		}
		return k
	}
	var out []vmsg[M]
	pos := map[int64]int{}
	for _, vm := range sends {
		k := key(vm)
		if i, ok := pos[k]; ok {
			out[i].m = prog.Combine(out[i].m, vm.m)
			continue
		}
		pos[k] = len(out)
		out = append(out, vm)
	}
	return out
}
