package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/graph"
	"graphsys/internal/storage"
)

// GCN training stage: data-parallel synchronous training with sampled
// mini-batches on a planted-community task.
const (
	gcnVertices  = 20000
	gcnClasses   = 8
	gcnTrainFrac = 0.5
	gcnHidden    = 64
	gcnBatch     = 256
	gcnRounds    = 5
	// lossSeeds is how many trainer seeds a run cycles through; train_loss
	// is the median of their final losses, which the task's seed alone
	// leaves too dependent on one trajectory.
	lossSeeds = 4
	// lossCeiling is the highest acceptable final full-graph loss; chance
	// level on eight classes is ln 8 ≈ 2.08 nats, and five rounds reach
	// about 1.4.
	lossCeiling = 1.8
)

var gcnFanouts = []int{10, 10}

func (r *run) setupGCN(sp *setupSpans) *gnn.Task {
	t0 := time.Now()
	task := gnn.HardSyntheticCommunityTask(gcnVertices, gcnClasses, gcnTrainFrac, r.seed)
	sp.task += since(&t0)
	return task
}

// trainerConfig configures training with the seed-th of the run's
// lossSeeds trainer seeds.
func (r *run) trainerConfig(seed int, src storage.Provider) gnndist.TrainerConfig {
	return gnndist.TrainerConfig{
		Workers:    workers,
		Kind:       gnn.GCN,
		Hidden:     gcnHidden,
		BatchSize:  gcnBatch,
		Fanouts:    gcnFanouts,
		Seed:       r.seed*lossSeeds + int64(seed),
		TimeBudget: gcnRounds, // each synchronous round costs 1 simulated unit
		Source:     src,
	}
}

type trainRun struct {
	wall      time.Duration
	steal     float64 // hypervisor steal share during the run
	res       gnndist.DistResult
	neighbors time.Duration
}

// gcnAcc accumulates the training stage's samples over the run's cycles.
type gcnAcc struct {
	losses       []float64 // first loss per trainer seed
	rates, walls []sample  // untraced repetitions
	reps         int       // untraced repetitions so far
	runs         []*trainRun
}

// gcn trains repeatedly for one cycle's budget; a traced run spends the
// second half of it with adjacency reads timed through a wrapping provider.
func (r *run) gcn(task *gnn.Task, acc *gcnAcc, budget time.Duration) error {
	untracedBudget := budget
	if r.traced {
		untracedBudget = budget / 2
	}
	err := repeatAtLeast(untracedBudget, 1, func(int) error { return r.trainUntraced(task, acc) })
	if err != nil || !r.traced {
		return err
	}
	r.prof.start()
	err = repeatAtLeast(budget-untracedBudget, 1, func(int) error {
		// cycle through the trainer seeds that already have an untraced loss
		seed := len(acc.runs) % len(acc.losses)
		tr, err := r.train(task, seed, true)
		if err != nil {
			return err
		}
		r.rec.op(checkLoss(tr.res.Loss, acc.losses[seed]))
		acc.runs = append(acc.runs, tr)
		return nil
	})
	if perr := r.prof.stop(); err == nil {
		err = perr
	}
	return err
}

// trainUntraced runs the next untraced repetition.
func (r *run) trainUntraced(task *gnn.Task, acc *gcnAcc) error {
	seed := acc.reps % lossSeeds
	tr, err := r.train(task, seed, false)
	if err != nil {
		return err
	}
	acc.reps++
	if seed == len(acc.losses) {
		acc.losses = append(acc.losses, tr.res.Loss)
	}
	r.rec.op(checkLoss(tr.res.Loss, acc.losses[seed]))
	acc.walls = append(acc.walls, sample{secs(tr.wall), tr.steal})
	acc.rates = append(acc.rates, sample{float64(gcnRounds*workers*gcnBatch) / secs(tr.wall), tr.steal})
	return nil
}

// gcnReport tops the run up to one repetition per trainer seed, records the
// stage's metrics and returns the untraced and traced wall times.
func (r *run) gcnReport(task *gnn.Task, acc *gcnAcc) (untraced, traced float64, err error) {
	for acc.reps < lossSeeds {
		if err := r.trainUntraced(task, acc); err != nil {
			return 0, 0, err
		}
	}
	r.rec.setClean("train_seeds_per_s", "seeds/s", true, acc.rates)
	r.rec.set("train_loss", "nats", median(acc.losses))
	r.rec.samples["train_loss"] = len(acc.losses)
	untraced = betterHalfMean(cleanValues(acc.walls), false)
	if !r.traced {
		return untraced, 0, nil
	}
	var tw, nb []float64
	for _, tr := range acc.runs {
		tw = append(tw, secs(tr.wall))
		nb = append(nb, secs(tr.neighbors))
	}
	last := acc.runs[len(acc.runs)-1]
	r.rec.set("gnndist.rounds", "count", float64(last.res.SyncRounds))
	r.rec.set("gnndist.grad_bytes", "B", float64(last.res.GradBytes))
	r.rec.set("gnndist.remote_frac", "ratio", last.res.RemoteFrac)
	r.rec.set("cluster.messages.gcn", "count", float64(last.res.Net.Messages))
	r.rec.set("cluster.local_messages.gcn", "count", float64(last.res.Net.LocalMessages))
	r.rec.set("cluster.bytes.gcn", "B", float64(last.res.Net.Bytes))
	r.rec.setSampled("storage.neighbors_s.gcn", "s", nb)
	return untraced, betterHalfMean(tw, false), nil
}

// train runs one TrainSync with the given trainer seed, sampling from the task graph in memory. A
// timed run passes storage.InMemory of the task graph, wrapped to time
// every Neighbors call; sampling through a source is byte-identical by
// contract, so the result must not change.
func (r *run) train(task *gnn.Task, seed int, timed bool) (*trainRun, error) {
	var tp *timedProvider
	var src storage.Provider
	if timed {
		tp = newTimedProvider(storage.InMemory(task.G), workers)
		src = tp
	}
	runtime.GC() // every repetition starts from a collected heap
	st := startSteal()
	t0 := time.Now()
	res, err := gnndist.TrainSync(task, r.trainerConfig(seed, src))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	tr := &trainRun{wall: time.Since(t0), steal: st.share(), res: res}
	if tp != nil {
		tr.neighbors = tp.neighbors()
	}
	return tr, nil
}

// checkLoss verifies a final training loss: finite, under the ceiling, and
// bitwise equal to the first loss the run saw for the same trainer seed
// (repetitions, and traced runs, must reproduce it).
func checkLoss(loss, first float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > lossCeiling {
		return fmt.Errorf("training: final loss %g not finite or above the ceiling %g", loss, lossCeiling)
	}
	if math.Float64bits(loss) != math.Float64bits(first) {
		return fmt.Errorf("training: loss %.17g differs bitwise from the run's first loss %.17g for the same seed", loss, first)
	}
	return nil
}

// timedProvider wraps a storage.Provider so that every Neighbors call of
// its handles is timed. TrainSync steps its workers one after another, so
// each handle is used by one goroutine at a time.
type timedProvider struct {
	storage.Provider
	handles []*timedSource
}

type timedSource struct {
	storage.GraphSource
	ns time.Duration
}

func newTimedProvider(p storage.Provider, workers int) *timedProvider {
	tp := &timedProvider{Provider: p}
	for w := 0; w < workers; w++ {
		tp.handles = append(tp.handles, &timedSource{GraphSource: p.Handle(w)})
	}
	return tp
}

func (p *timedProvider) Handle(w int) storage.GraphSource { return p.handles[w] }

func (p *timedProvider) neighbors() time.Duration {
	var d time.Duration
	for _, h := range p.handles {
		d += h.ns
	}
	return d
}

func (s *timedSource) Neighbors(v graph.V) ([]graph.V, error) {
	t0 := time.Now()
	ns, err := s.GraphSource.Neighbors(v)
	s.ns += time.Since(t0)
	return ns, err
}
