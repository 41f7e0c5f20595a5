package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the task-parallel execution substrate behind the G-thinkerQ-shaped
// engines: each admitted query owns a queue of fine-grained tasks, a shared
// worker pool draws tasks across queries under the configured Policy, and
// tasks may spawn children (TaskContext.Spawn) so heavy queries decompose
// and interleave with light ones.
//
// T is the task payload, A the query's answer type. Task results are folded
// into the query's accumulator with merge, which must be commutative and
// associative (task completion order is scheduling-dependent); it runs under
// the pool lock, so executors should aggregate locally and return one
// partial per task.
type Pool[T, A any] struct {
	opts  Options
	clock Clock
	exec  func(tc *TaskContext[T], task T) A
	merge func(a, b A) A

	ctr    counters
	nextID atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	order   []*pjob[T, A] // live jobs in admission order
	rr      int           // round-robin cursor into order
	idle    int           // workers parked in cond.Wait
	closing bool          // Submit rejects with ErrClosed
	closed  bool          // workers exit once jobs drain
	wg      sync.WaitGroup
}

// pjob is one admitted query's scheduling state. All fields are guarded by
// Pool.mu except the ticket's own atomics.
type pjob[T, A any] struct {
	ticket  *Ticket[A]
	tasks   []T   // LIFO stack of runnable tasks
	pending int   // tasks not yet fully completed (queued + executing)
	acc     A     // merged partial answer
	served  int64 // task draws so far (WeightedFair bookkeeping)
	cost    int64 // caller's service-demand estimate (0 = unknown)
	weight  int
	term    error // ErrCanceled/ErrDeadlineExceeded once noticed; nil while live
}

// remaining is the ShortestRemaining key: the caller's estimate net of
// service received when one was given, the outstanding task count otherwise.
func (j *pjob[T, A]) remaining() int64 {
	if j.cost > 0 {
		if r := j.cost - j.served; r > 0 {
			return r
		}
		return 1 // estimate exhausted but work outstanding: nearly done
	}
	return int64(j.pending)
}

// JobSpec describes one query submitted to a Pool: its root tasks, the
// answer accumulator's initial value, and the serving metadata (deadline,
// weight, cost estimate) the scheduler acts on.
type JobSpec[T, A any] struct {
	// Roots are the query's initial tasks; the pool takes ownership of the
	// slice. An empty Roots completes immediately with Initial.
	Roots []T
	// Initial seeds the query's answer accumulator.
	Initial A
	// Deadline, Weight, Cost: see Request.
	Deadline time.Duration
	Weight   int
	Cost     int64
}

// NewPool starts a pool with opts.Workers workers. exec runs one task and
// returns its partial answer (spawning children via tc); merge folds
// partials into the query accumulator. Returns ErrInvalidRequest for a nil
// exec/merge or an unknown policy.
func NewPool[T, A any](opts Options, exec func(tc *TaskContext[T], task T) A, merge func(a, b A) A) (*Pool[T, A], error) {
	if exec == nil || merge == nil {
		return nil, ErrInvalidRequest
	}
	if !opts.Policy.valid() {
		return nil, ErrInvalidRequest
	}
	p := &Pool[T, A]{
		opts:  opts,
		clock: opts.clock(),
		exec:  exec,
		merge: merge,
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < opts.workers(); w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p, nil
}

// TaskContext is the executor's view of one task: spawn children, observe
// abort (cancel or deadline expiry) to short-circuit expensive loops. Each
// worker owns one TaskContext and rebinds it to every task it draws.
type TaskContext[T any] struct {
	canceled *atomic.Bool // the drawn query's Ticket cancel flag
	deadline time.Time    // the drawn query's deadline; zero = none
	clock    Clock
	spawned  []T
}

// Spawn queues child tasks for the same query.
func (tc *TaskContext[T]) Spawn(tasks ...T) { tc.spawned = append(tc.spawned, tasks...) }

// Aborted reports whether the query was canceled or its deadline passed;
// executors should return early (their partial result is still merged).
// It costs an atomic load plus, for a query with a deadline, one read of
// the pool's clock: call it between coarse units of work, not per
// candidate.
func (tc *TaskContext[T]) Aborted() bool {
	return tc.canceled.Load() || (!tc.deadline.IsZero() && tc.clock().After(tc.deadline))
}

// Submit admits one query. It returns ErrClosed after Close has begun and
// ErrQueueFull when Options.QueueLimit queries are already in flight (the
// rejection is metered). Empty-root queries complete immediately.
func (p *Pool[T, A]) Submit(spec JobSpec[T, A]) (*Ticket[A], error) {
	p.ctr.submitted.Add(1)
	now := p.clock()
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if p.opts.QueueLimit > 0 && len(p.order) >= p.opts.QueueLimit {
		p.ctr.rejected.Add(1)
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	tk := newTicket[A](p.nextID.Add(1), now, p.opts.deadlineFor(spec.Deadline), weightFor(spec.Weight))
	p.ctr.admitted.Add(1)
	if len(spec.Roots) == 0 {
		p.ctr.completed.Add(1)
		tk.complete(spec.Initial, nil, now)
		p.mu.Unlock()
		return tk, nil
	}
	p.order = append(p.order, &pjob[T, A]{
		ticket: tk, tasks: spec.Roots, pending: len(spec.Roots),
		acc: spec.Initial, cost: spec.Cost, weight: weightFor(spec.Weight),
	})
	if p.idle > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	return tk, nil
}

// Drain blocks until every admitted query has reached a terminal state.
func (p *Pool[T, A]) Drain() {
	p.mu.Lock()
	for len(p.order) > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close drains the pool, then stops the workers. Submit during or after
// Close returns ErrClosed. Safe to call more than once.
func (p *Pool[T, A]) Close() error {
	p.mu.Lock()
	p.closing = true
	for len(p.order) > 0 {
		p.cond.Wait()
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// Metrics returns a snapshot of the admission and completion counters.
func (p *Pool[T, A]) Metrics() Metrics { return p.ctr.snapshot() }

func (p *Pool[T, A]) worker() {
	defer p.wg.Done()
	tc := &TaskContext[T]{clock: p.clock}
	var (
		j       *pjob[T, A]
		task    T
		partial A
		ok      bool
	)
	for {
		if j, task, ok = p.step(tc, j, partial); !ok {
			return
		}
		partial = p.exec(tc, task)
	}
}

// step is one scheduling point of a worker: under a single lock hold it
// retires the worker's previous task (prev, nil on the first step) and
// draws the next one, binding tc to it. The step's one clock read is taken
// before the lock and drives the completion check, reaping and the terminal
// stamps alike. ok is false once the pool is closed and drained.
func (p *Pool[T, A]) step(tc *TaskContext[T], prev *pjob[T, A], partial A) (j *pjob[T, A], task T, ok bool) {
	now := p.clock()
	p.mu.Lock()
	if prev != nil {
		p.retireLocked(prev, partial, tc.spawned, now)
		clear(tc.spawned) // release the children's references for GC
		tc.spawned = tc.spawned[:0]
	}
	for {
		if j, task, ok = p.drawLocked(now); ok {
			p.mu.Unlock()
			tc.canceled, tc.deadline = &j.ticket.canceled, j.ticket.deadline
			return j, task, true
		}
		if p.closed && len(p.order) == 0 {
			p.mu.Unlock()
			return nil, task, false
		}
		p.idle++
		p.cond.Wait()
		p.idle--
		// time moved while parked; re-read it outside the lock
		p.mu.Unlock()
		now = p.clock()
		p.mu.Lock()
	}
}

// retireLocked completes one task of j: it merges the partial answer,
// observes cancellation and expiry at completion, enqueues the children
// unless the query is terminating, and finishes the query when its last
// task retires.
func (p *Pool[T, A]) retireLocked(j *pjob[T, A], partial A, children []T, now time.Time) {
	j.acc = p.merge(j.acc, partial)
	j.pending--
	j.observe(now)
	if j.term == nil && len(children) > 0 {
		j.tasks = append(j.tasks, children...)
		j.pending += len(children)
		if p.idle > 0 {
			p.cond.Broadcast()
		}
	}
	if j.pending == 0 {
		for i, o := range p.order {
			if o == j {
				p.finishJobLocked(i, now)
				break
			}
		}
	}
}

// drawLocked reaps canceled and expired queries, then pops the next task
// under the policy. Draws and task completions are where cancellation and
// expiry are observed.
func (p *Pool[T, A]) drawLocked(now time.Time) (*pjob[T, A], T, bool) {
	var zero T
	p.reapLocked(now)
	j := p.pickLocked()
	if j == nil {
		return nil, zero, false
	}
	n := len(j.tasks) - 1
	task := j.tasks[n]
	j.tasks[n] = zero // release the reference for GC
	j.tasks = j.tasks[:n]
	j.served++
	return j, task, true
}

// observe records the query's terminal cause once it has been canceled or
// its deadline has passed at now.
func (j *pjob[T, A]) observe(now time.Time) {
	if j.term != nil {
		return
	}
	if j.ticket.Canceled() {
		j.term = ErrCanceled
	} else if j.ticket.expiredAt(now) {
		j.term = ErrDeadlineExceeded
	}
}

// reapLocked terminates queries that were canceled or whose deadline passed:
// queued tasks are dropped; in-flight tasks finish and merge their partials.
func (p *Pool[T, A]) reapLocked(now time.Time) {
	for i := 0; i < len(p.order); {
		j := p.order[i]
		j.observe(now)
		if j.term != nil && len(j.tasks) > 0 {
			j.pending -= len(j.tasks)
			j.tasks = nil
		}
		if j.term != nil && j.pending == 0 {
			p.finishJobLocked(i, now) // order[i] now holds the next job
			continue
		}
		i++
	}
}

// pickLocked selects the next query to draw a task from, or nil when no
// query has a runnable task. Ties break toward earlier admission, so every
// policy is deterministic given the same scheduling state.
func (p *Pool[T, A]) pickLocked() *pjob[T, A] {
	switch p.opts.Policy {
	case RoundRobin:
		for i := 0; i < len(p.order); i++ {
			idx := (p.rr + i) % len(p.order)
			if j := p.order[idx]; len(j.tasks) > 0 {
				p.rr = (idx + 1) % len(p.order)
				return j
			}
		}
		return nil
	case FIFO:
		for _, j := range p.order {
			if len(j.tasks) > 0 {
				return j
			}
		}
		return nil
	case ShortestRemaining:
		var best *pjob[T, A]
		for _, j := range p.order {
			if len(j.tasks) > 0 && (best == nil || j.remaining() < best.remaining()) {
				best = j
			}
		}
		return best
	case WeightedFair:
		var best *pjob[T, A]
		for _, j := range p.order {
			if len(j.tasks) > 0 && (best == nil || fairBefore(j.served, j.weight, best.served, best.weight)) {
				best = j
			}
		}
		return best
	default:
		return nil // NewPool validated the policy; unreachable
	}
}

// finishJobLocked publishes the terminal state of order[i] and retires it
// from the scheduler. The terminal stamp is never earlier than the submit
// stamp: now is read before the lock, so a query admitted after that read
// and canceled at once would otherwise finish before it began.
func (p *Pool[T, A]) finishJobLocked(i int, now time.Time) {
	j := p.order[i]
	copy(p.order[i:], p.order[i+1:])
	p.order[len(p.order)-1] = nil
	p.order = p.order[:len(p.order)-1]
	if p.rr > i {
		p.rr--
	}
	if len(p.order) == 0 {
		p.rr = 0
		p.cond.Broadcast() // Drain and Close wait for an empty order
	} else {
		p.rr %= len(p.order)
	}
	switch j.term {
	case nil:
		p.ctr.completed.Add(1)
	case ErrCanceled:
		p.ctr.canceled.Add(1)
	case ErrDeadlineExceeded:
		p.ctr.expired.Add(1)
	}
	if now.Before(j.ticket.submitted) {
		now = j.ticket.submitted
	}
	j.ticket.complete(j.acc, j.term, now)
}
