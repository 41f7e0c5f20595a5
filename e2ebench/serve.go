package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/gthinkerq"
	"graphsys/internal/match"
	"graphsys/internal/quegel"
	"graphsys/internal/serve"
)

// Query-serving stage: one generator drives both live engines on a
// labelled data graph, in wall-clock time. Two open-loop Poisson phases at
// fixed rates are followed by a closed loop of closedClients clients that
// measures capacity. On the 2-vCPU host the rates were set on, capacity was
// about 1,100 queries/s: low is about an eighth of it and high about a
// third. At 600/s the task pool's queues collapsed in traced runs and
// queries expired.
const (
	serveVertices = 1000
	serveAttach   = 4
	serveLabels   = 8

	// latencyLimit is every query's deadline and the latency a failed
	// query is counted at.
	latencyLimit = time.Second

	lowQPS        = 150.0
	highQPS       = 350.0
	closedClients = 2

	// shares of the serve stage's time per phase: low, high, closed
	lowShare  = 0.35
	highShare = 0.35
)

// Query classes of the mix. Short and long are subgraph-count queries to
// gthinkerq; hop queries ask quegel for a hop distance.
const (
	classShort = iota
	classLong
	classHop
)

// classWeights is the mix: shares of short, long and hop queries.
var classWeights = [3]float64{0.75, 0.10, 0.15}

// shapes are pattern edge lists over vertices numbered in a connected order
// (each vertex after the first is adjacent to an earlier one), so the
// oracle's id-order plan never enumerates disconnected prefixes. Short
// patterns carry random labels, which prune the search to a few hundred
// microseconds; the long pattern is unlabelled and counts every triangle of
// the data graph, about twenty times the work.
var shapes = [2][][][2]graph.V{
	classShort: {
		{{0, 1}, {1, 2}},                 // wedge
		{{0, 1}, {1, 2}, {2, 3}},         // 4-path
		{{0, 1}, {1, 2}, {2, 0}, {2, 3}}, // tailed triangle
		{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, // 4-cycle
	},
	classLong: {
		{{0, 1}, {1, 2}, {2, 0}}, // triangle
	},
}

type serveInput struct {
	g  *graph.Graph
	gq *gthinkerq.Engine
	qe *quegel.Engine

	outcomes []*outcome // every query of every phase, checked after the stage
}

func (s *serveInput) close() {
	if s.gq != nil {
		s.gq.Close()
	}
	if s.qe != nil {
		s.qe.Close()
	}
}

func (r *run) setupServe(sp *setupSpans) (*serveInput, error) {
	s := &serveInput{}
	t0 := time.Now()
	s.g = gen.WithRandomLabels(gen.BarabasiAlbert(serveVertices, serveAttach, r.seed), serveLabels, r.seed+1)
	sp.gen += since(&t0)
	opts := serve.Options{Workers: workers, Deadline: latencyLimit}
	var err error
	if s.gq, err = gthinkerq.NewEngine(s.g, opts); err != nil {
		return s, err
	}
	if s.qe, err = quegel.NewEngine(s.g, opts); err != nil {
		return s, err
	}
	sp.start += since(&t0)
	return s, nil
}

// query is one generated request.
type query struct {
	class    int
	pattern  *graph.Graph
	key      string // shape and labels: the oracle cache key
	src, dst graph.V
}

// queryGen draws queries from the mix.
type queryGen struct {
	rng *rand.Rand
	n   int
}

func (qg *queryGen) next() *query {
	x := qg.rng.Float64()
	class := classHop
	if x < classWeights[classShort] {
		class = classShort
	} else if x < classWeights[classShort]+classWeights[classLong] {
		class = classLong
	}
	if class == classHop {
		return &query{class: class, src: graph.V(qg.rng.Intn(qg.n)), dst: graph.V(qg.rng.Intn(qg.n))}
	}
	si := qg.rng.Intn(len(shapes[class]))
	edges := shapes[class][si]
	k := 0
	for _, e := range edges {
		k = max(k, int(e[0])+1, int(e[1])+1)
	}
	b := graph.NewBuilder(k, false)
	key := fmt.Sprintf("%d/%d:", class, si)
	for v := 0; class == classShort && v < k; v++ {
		l := int32(qg.rng.Intn(serveLabels))
		b.SetLabel(graph.V(v), l)
		key += fmt.Sprintf("%d,", l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return &query{class: class, pattern: b.Build(), key: key}
}

// outcome is what the generator saw of one query.
type outcome struct {
	q        *query
	due      time.Time
	lag      time.Duration // due → Submit called
	submit   time.Duration // duration of the Submit call
	ticket   time.Duration // Ticket.Latency: engine submit stamp → completion stamp
	observed time.Duration // due → the generator saw the ticket done
	count    int64
	dist     int32
	err      error
}

// dueLatency is the query's latency counted from when it was due.
func (o *outcome) dueLatency() time.Duration {
	if o.err != nil {
		return latencyLimit
	}
	return o.lag + o.ticket
}

// submit sends q to its engine at the current time and, unless Submit
// fails, waits for the ticket in a goroutine tracked by wg.
func (s *serveInput) submit(o *outcome, wg *sync.WaitGroup) {
	t1 := time.Now()
	o.lag = t1.Sub(o.due)
	if o.q.class == classHop {
		tk, err := s.qe.Submit(serve.Request[quegel.Query]{Query: quegel.Query{Src: o.q.src, Dst: o.q.dst}, Deadline: latencyLimit})
		o.submit = time.Since(t1)
		if err != nil {
			o.err = err
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-tk.Done()
			o.observed = time.Since(o.due)
			ans, err := tk.Wait()
			o.ticket, o.dist, o.err = tk.Latency(), ans.Dist, err
		}()
		return
	}
	tk, err := s.gq.Submit(serve.Request[*graph.Graph]{Query: o.q.pattern, Deadline: latencyLimit})
	o.submit = time.Since(t1)
	if err != nil {
		o.err = err
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-tk.Done()
		o.observed = time.Since(o.due)
		n, err := tk.Wait()
		o.ticket, o.count, o.err = tk.Latency(), n, err
	}()
}

// engineTotals sums both engines' admission counters and quegel's batch
// ledger.
type engineTotals struct {
	m                   serve.Metrics
	supersteps, batches int
}

func (s *serveInput) totals() engineTotals {
	a, b := s.gq.Metrics(), s.qe.Metrics()
	st, batches := s.qe.Stats()
	return engineTotals{
		m: serve.Metrics{
			Submitted: a.Submitted + b.Submitted, Rejected: a.Rejected + b.Rejected,
			Expired: a.Expired + b.Expired, Completed: a.Completed + b.Completed,
		},
		supersteps: st.Supersteps, batches: batches,
	}
}

// serveAcc accumulates the serving stage's samples over the run's cycles.
type serveAcc struct {
	rng    *rand.Rand
	phase  map[string]*phaseAcc
	closed []closedRun
}

// closedRun is one cycle's closed loop.
type closedRun struct {
	done  int           // queries completed
	wall  time.Duration // time the loop ran
	steal float64       // hypervisor steal share meanwhile
}

// phaseAcc collects one open-loop phase's queries per cycle and its engine
// counter deltas.
type phaseAcc struct {
	runs                []phaseRun
	rejected, expired   int64
	supersteps, batches int
}

// phaseRun is one cycle's run of a phase.
type phaseRun struct {
	outs  []*outcome
	steal float64 // hypervisor steal share during the phase
}

func (r *run) newServeAcc() *serveAcc {
	return &serveAcc{
		rng:   rand.New(rand.NewSource(r.seed*7919 + 17)),
		phase: map[string]*phaseAcc{"low": {}, "high": {}},
	}
}

// serve runs the three phases once for one cycle's budget.
func (r *run) serve(s *serveInput, acc *serveAcc, budget time.Duration) error {
	if r.traced {
		r.prof.start()
	}
	r.openLoop(s, acc.phase["low"], lowQPS, time.Duration(lowShare*float64(budget)), acc.rng)
	r.openLoop(s, acc.phase["high"], highQPS, time.Duration(highShare*float64(budget)), acc.rng)
	r.closedLoop(s, acc, time.Duration((1-lowShare-highShare)*float64(budget)))
	if r.traced {
		return r.prof.stop()
	}
	return nil
}

// openLoop submits Poisson arrivals at rate qps for d, each at its due time
// whatever the engines' state, then waits for every ticket.
func (r *run) openLoop(s *serveInput, ph *phaseAcc, qps float64, d time.Duration, rng *rand.Rand) {
	qg := &queryGen{rng: rand.New(rand.NewSource(rng.Int63())), n: s.g.NumVertices()}
	var outs []*outcome
	var offsets []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / qps
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			break
		}
		outs = append(outs, &outcome{q: qg.next()})
		offsets = append(offsets, off)
	}
	before := s.totals()
	var wg sync.WaitGroup
	runtime.GC() // every phase starts from a collected heap
	st := startSteal()
	start := time.Now()
	for i, o := range outs {
		o.due = start.Add(offsets[i])
		if w := time.Until(o.due); w > 0 {
			time.Sleep(w)
		}
		s.submit(o, &wg)
	}
	wg.Wait()
	after := s.totals()
	s.outcomes = append(s.outcomes, outs...)
	ph.runs = append(ph.runs, phaseRun{outs: outs, steal: st.share()})
	ph.rejected += after.m.Rejected - before.m.Rejected
	ph.expired += after.m.Expired - before.m.Expired
	ph.supersteps += after.supersteps - before.supersteps
	ph.batches += after.batches - before.batches
}

// closedLoop runs closedClients clients that each submit their next query
// when the previous one completes, for d.
func (r *run) closedLoop(s *serveInput, acc *serveAcc, d time.Duration) {
	outs := make([][]*outcome, closedClients)
	gens := make([]*queryGen, closedClients)
	for c := range gens {
		gens[c] = &queryGen{rng: rand.New(rand.NewSource(acc.rng.Int63())), n: s.g.NumVertices()}
	}
	var clients sync.WaitGroup
	runtime.GC()
	st := startSteal()
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < closedClients; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for time.Now().Before(end) {
				o := &outcome{q: gens[c].next(), due: time.Now()}
				var wg sync.WaitGroup
				s.submit(o, &wg)
				wg.Wait()
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	clients.Wait()
	run := closedRun{wall: time.Since(start), steal: st.share()}
	for _, os := range outs {
		for _, o := range os {
			if o.err == nil {
				run.done++
			}
		}
		s.outcomes = append(s.outcomes, os...)
	}
	acc.closed = append(acc.closed, run)
}

// serveReport records the serving metrics, pooling each phase over the
// better half of its clean cycles (cleanIdx), as setClean does for
// repeated jobs.
func (r *run) serveReport(acc *serveAcc) {
	for _, name := range phases {
		ph := acc.phase[name]
		steals := make([]float64, len(ph.runs))
		for i, pr := range ph.runs {
			steals[i] = pr.steal
		}
		// the better half of the clean cycles, by their median latency
		idx := cleanIdx(steals)
		p50 := func(i int) float64 {
			var lat []float64
			for _, o := range ph.runs[i].outs {
				lat = append(lat, float64(o.dueLatency()))
			}
			return percentile(lat, 50)
		}
		sort.SliceStable(idx, func(a, b int) bool { return p50(idx[a]) < p50(idx[b]) })
		idx = idx[:(len(idx)+1)/2]
		var outs []*outcome
		for _, i := range idx {
			outs = append(outs, ph.runs[i].outs...)
		}
		r.rec.samples["query_ms."+name+".cycles"] = len(idx)
		var all, short, gq, qe, submit, lag, rec []float64
		hops := 0
		for _, o := range outs {
			lat := millis(o.dueLatency())
			all = append(all, lat)
			if o.q.class == classShort {
				short = append(short, lat)
			}
			submit = append(submit, float64(o.submit)/float64(time.Microsecond))
			lag = append(lag, millis(o.lag))
			if o.err != nil {
				continue
			}
			if o.q.class == classHop {
				qe = append(qe, millis(o.ticket))
				hops++
			} else {
				gq = append(gq, millis(o.ticket))
			}
			gap := o.observed - o.lag - o.ticket
			if gap < 0 {
				r.rec.problem(fmt.Errorf("%s phase: due-time latency %v is less than lag %v plus ticket latency %v", name, o.observed, o.lag, o.ticket))
			}
			rec = append(rec, millis(gap))
		}
		r.rec.set("query_p50_ms."+name, "ms", percentile(all, 50))
		r.rec.set("query_p99_ms."+name, "ms", percentile(all, 99))
		r.rec.samples["query_ms."+name] = len(all)
		if name == "high" {
			r.rec.set("short_p99_ms.high", "ms", percentile(short, 99))
			r.rec.samples["short_ms.high"] = len(short)
		}
		r.rec.set("gthinkerq.p50_ms."+name, "ms", percentile(gq, 50))
		r.rec.set("gthinkerq.p99_ms."+name, "ms", percentile(gq, 99))
		r.rec.set("quegel.p50_ms."+name, "ms", percentile(qe, 50))
		r.rec.set("quegel.p99_ms."+name, "ms", percentile(qe, 99))
		r.rec.set("serve.submit_us.p99."+name, "us", percentile(submit, 99))
		r.rec.set("loadgen.lag_ms.p99."+name, "ms", percentile(lag, 99))
		r.rec.set("loadgen.reconcile_ms.p99."+name, "ms", percentile(rec, 99))
		r.rec.set("serve.rejected."+name, "count", float64(ph.rejected))
		r.rec.set("serve.expired."+name, "count", float64(ph.expired))
		r.rec.set("quegel.batch_queries."+name, "queries/batch", float64(hops)/float64(max(ph.batches, 1)))
		r.rec.set("quegel.supersteps."+name, "count", float64(ph.supersteps))
	}
	steals := make([]float64, len(acc.closed))
	for i, c := range acc.closed {
		steals[i] = c.steal
	}
	// the better half of the clean cycles, by their completion rate
	idx := cleanIdx(steals)
	rate := func(i int) float64 { return float64(acc.closed[i].done) / acc.closed[i].wall.Seconds() }
	sort.SliceStable(idx, func(a, b int) bool { return rate(idx[a]) > rate(idx[b]) })
	var done int
	var wall time.Duration
	for _, i := range idx[:(len(idx)+1)/2] {
		done += acc.closed[i].done
		wall += acc.closed[i].wall
	}
	r.rec.set("capacity_qps", "queries/s", float64(done)/wall.Seconds())
	r.rec.samples["capacity_qps"] = done
}

// serveOracles checks every query's answer: subgraph counts against a
// single-worker match.Count with the naive plan (once per distinct
// pattern), hop distances against a BFS (once per source). A rejected,
// expired or failed query counts as failed.
func (r *run) serveOracles(s *serveInput) {
	counts := map[string]int64{}
	dists := map[graph.V][]int32{}
	for _, o := range s.outcomes {
		if o.err != nil {
			r.rec.op(fmt.Errorf("query %s: %w", o.q.describe(), o.err))
			continue
		}
		if o.q.class == classHop {
			d, ok := dists[o.q.src]
			if !ok {
				d = serialBFS(s.g, o.q.src)
				dists[o.q.src] = d
			}
			if want := d[o.q.dst]; o.dist != want {
				r.rec.op(fmt.Errorf("query %s: distance %d, BFS says %d", o.q.describe(), o.dist, want))
				continue
			}
			r.rec.op(nil)
			continue
		}
		want, ok := counts[o.q.key]
		if !ok {
			want = naiveCount(s.g, o.q.pattern)
			counts[o.q.key] = want
		}
		if o.count != want {
			r.rec.op(fmt.Errorf("query %s: %d matches, naive count says %d", o.q.describe(), o.count, want))
			continue
		}
		r.rec.op(nil)
	}
}

// naiveCount counts instances of pattern p in g: embeddings found by the
// id-order plan without symmetry breaking, divided by p's automorphisms.
func naiveCount(g *graph.Graph, p *graph.Graph) int64 {
	emb, _ := match.Count(g, match.NaivePlan(p), 1)
	return emb / int64(len(match.Automorphisms(p)))
}

func (q *query) describe() string {
	if q.class == classHop {
		return fmt.Sprintf("hop %d→%d", q.src, q.dst)
	}
	return "pattern " + q.key
}
