package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/score"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("batch: pool is closed")

// ErrQueueFull is returned by TrySubmit when the submission queue has no
// free slot — the admission-control signal servers turn into a 429.
var ErrQueueFull = errors.New("batch: submission queue is full")

// Solver solves one instance. The instance's Sigma has already been swapped
// for the pool's cached compiled matrix; ctx is the per-instance context
// and is already non-nil and live when the solver runs. Each solve runs on
// its shard's goroutine.
type Solver func(ctx context.Context, in *core.Instance) (any, error)

// Options configures a Pool.
type Options struct {
	// Shards is the number of concurrent instance solvers; < 1 means
	// GOMAXPROCS.
	Shards int
	// Queue bounds the submission queue; Submit blocks when it is full.
	// < 1 means 2×Shards.
	Queue int
	// Solve is the per-instance solver. Required.
	Solve Solver
	// Inject arms the fault-injection points inside the pool (shard
	// panics, slow shards, queue-return stalls, deadline overruns, σ-cache
	// drops). Nil — the default — injects nothing; see internal/faultinject.
	Inject *faultinject.Injector
	// MemBudget, when > 0, caps the estimated memory of any single admitted
	// instance: Submit and TrySubmit run the EstimateMem cost model and
	// refuse over-budget instances with an *OverBudgetError before taking a
	// queue slot. Instances whose σ is already resident (pre-compiled or in
	// the pool's cache) are charged only scratch + state. 0 disables the
	// gate.
	MemBudget int64
	// Quantized tells the memory budget that solves run in integer score
	// mode, which adds the quantized σ matrix, its transpose and their
	// positive-cell indexes to the σ term.
	Quantized bool
}

// Ticket is the handle for one submitted instance.
type Ticket struct {
	// Index is the submission sequence number, assigned in Submit order.
	Index int

	in   *core.Instance
	ctx  context.Context
	done chan struct{}
	res  any
	err  error
}

// Wait blocks until the instance is solved (or its context fires while it
// is still queued or running) and returns the solver's result.
func (t *Ticket) Wait() (any, error) {
	<-t.done
	return t.res, t.err
}

// Done is closed when the ticket's result is ready; wrappers use it to
// release per-instance deadline timers without waiting themselves.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Counters is a point-in-time snapshot of a Pool's observable state, the
// raw material for admission control and a /metrics surface. All cumulative
// fields count since New.
type Counters struct {
	// QueueDepth is the number of submitted instances waiting for a shard
	// right now; QueueCap is the configured bound. Depth == Cap means the
	// next TrySubmit is rejected.
	QueueDepth int
	QueueCap   int
	// InFlight is the number of instances currently being solved.
	InFlight int
	// Submitted counts accepted submissions (Submit and TrySubmit alike);
	// Rejected counts TrySubmit refusals due to a full queue; OverBudget
	// counts submissions refused by the memory-budget gate.
	Submitted  int64
	Rejected   int64
	OverBudget int64
	// Completed counts solves that returned a result; Failed counts solves
	// that returned an error — cancellations, deadline hits, and solver
	// panics included. Submitted == Completed + Failed + QueueDepth +
	// InFlight at any quiescent point.
	Completed int64
	Failed    int64
	// SigmaHits and SigmaMisses count the per-alphabet compiled-σ cache:
	// a hit is a submission whose scorer was already compiled (or arrived
	// pre-compiled), a miss paid the compile.
	SigmaHits   int64
	SigmaMisses int64
	// ShardBusy is the cumulative wall time each shard spent solving,
	// indexed by shard; busy/elapsed per shard is the pool's utilization.
	ShardBusy []time.Duration
}

// Pool is a sharded batch solver. See the package documentation.
type Pool struct {
	opts Options
	jobs chan *Ticket
	// space is the queue-bound token semaphore: it starts with Queue
	// tokens, Submit/TrySubmit take one before sending on jobs, and a shard
	// returns it on dequeue. The invariant tokens_free + len(jobs) == Queue
	// makes the jobs send below always non-blocking, so the seq critical
	// section is O(ns) and TrySubmit can reject without ever blocking
	// behind a stalled Submit.
	space chan struct{}
	sigs  sigCache
	inj   *faultinject.Injector
	next  atomic.Int64
	// seq is a one-slot semaphore serializing enqueue+index-assignment so
	// Ticket.Index always matches queue order under concurrent Submit —
	// unlike a mutex, waiting submitters can still honor their contexts.
	seq chan struct{}

	submitted  atomic.Int64
	rejected   atomic.Int64
	overBudget atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	inflight   atomic.Int64
	busy       []atomic.Int64 // per-shard cumulative solve nanoseconds

	mu     sync.RWMutex // guards closed against concurrent Submit/Close
	closed bool
	wg     sync.WaitGroup // shard goroutines
}

// New starts a pool. The caller must Close it to release the workers.
func New(opts Options) *Pool {
	if opts.Solve == nil {
		panic("batch: Options.Solve is required")
	}
	if opts.Shards < 1 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.Queue < 1 {
		opts.Queue = 2 * opts.Shards
	}
	p := &Pool{
		opts:  opts,
		jobs:  make(chan *Ticket, opts.Queue),
		space: make(chan struct{}, opts.Queue),
		seq:   make(chan struct{}, 1),
		busy:  make([]atomic.Int64, opts.Shards),
		inj:   opts.Inject,
	}
	for i := 0; i < opts.Queue; i++ {
		p.space <- struct{}{}
	}
	p.sigs.init()
	p.wg.Add(opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		go p.shard(i)
	}
	return p
}

// Shards returns the number of solver goroutines.
func (p *Pool) Shards() int { return p.opts.Shards }

// Counters returns a snapshot of the pool's queue, solve, and σ-cache
// counters. Safe for concurrent use; the snapshot is internally consistent
// only at quiescence (fields are read individually, not atomically as a
// set), which is all a metrics surface needs.
func (p *Pool) Counters() Counters {
	c := Counters{
		QueueDepth:  len(p.jobs),
		QueueCap:    cap(p.jobs),
		InFlight:    int(p.inflight.Load()),
		Submitted:   p.submitted.Load(),
		Rejected:    p.rejected.Load(),
		OverBudget:  p.overBudget.Load(),
		Completed:   p.completed.Load(),
		Failed:      p.failed.Load(),
		SigmaHits:   p.sigs.hits.Load(),
		SigmaMisses: p.sigs.misses.Load(),
		ShardBusy:   make([]time.Duration, len(p.busy)),
	}
	for i := range p.busy {
		c.ShardBusy[i] = time.Duration(p.busy[i].Load())
	}
	return c
}

// Submit enqueues one instance and returns its ticket. It blocks while the
// queue is full; ctx (nil means Background) cancels both the wait for queue
// space and, later, the solve itself — per-instance deadlines are set by
// deriving ctx with context.WithDeadline before submitting. The instance is
// shallow-copied with its scorer swapped for the pool's cached compiled
// matrix, so the caller's instance is never mutated.
func (p *Pool) Submit(ctx context.Context, in *core.Instance) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The read lock spans the enqueue: Close's write lock therefore waits
	// for in-flight Submits, and no Submit can send on a closed channel.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	// The memory-budget gate runs before any queue wait: an instance the
	// pool could never fit should fail immediately, not after blocking
	// behind admissible work.
	if err := p.admitMem(in); err != nil {
		return nil, err
	}
	// Take a queue slot first — the only wait that can last — without
	// holding seq, so non-blocking TrySubmit callers are never stuck
	// behind a backpressured Submit.
	select {
	case <-p.space:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.enqueue(ctx, in)
}

// TrySubmit is the non-blocking form of Submit: when the queue has no free
// slot it fails immediately with ErrQueueFull instead of waiting, counting
// the rejection. This is the admission-control primitive — a server maps
// ErrQueueFull to 429 + Retry-After rather than absorbing unbounded load.
func (p *Pool) TrySubmit(ctx context.Context, in *core.Instance) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	if err := p.admitMem(in); err != nil {
		return nil, err
	}
	select {
	case <-p.space:
	default:
		p.rejected.Add(1)
		return nil, ErrQueueFull
	}
	return p.enqueue(ctx, in)
}

// enqueue finishes a submission that already holds a queue-slot token (and
// the closed read lock): swap in the cached σ, then send + assign the index
// under seq so Ticket.Index order is exactly queue order.
func (p *Pool) enqueue(ctx context.Context, in *core.Instance) (*Ticket, error) {
	cin := *in
	if p.inj.Fires(faultinject.SigmaDrop) {
		// Injected σ-cache drop: compile fresh, bypassing the identity
		// cache. The corruption guard — results must not depend on which
		// matrix identity a solve happened to receive.
		cin.Sigma = score.Compile(in.Sigma, in.MaxSymbolID())
	} else {
		cin.Sigma = p.sigs.get(in.Sigma, in.MaxSymbolID())
	}
	t := &Ticket{in: &cin, ctx: ctx, done: make(chan struct{})}
	select {
	case p.seq <- struct{}{}:
	case <-ctx.Done():
		p.space <- struct{}{} // return the unused slot
		return nil, ctx.Err()
	}
	// Holding a space token guarantees len(jobs) < cap, so this send never
	// blocks; holding seq across send + assignment keeps index order equal
	// to queue order even under concurrent submitters.
	p.jobs <- t
	t.Index = int(p.next.Add(1) - 1)
	<-p.seq
	p.submitted.Add(1)
	return t, nil
}

// SolveAll submits every instance and waits for all of them, returning
// results and errors in input order. A per-instance failure (including
// cancellation) occupies its slot in errs; err is non-nil only when
// submission itself failed, and the returned slices still cover every
// submitted instance.
func (p *Pool) SolveAll(ctx context.Context, ins []*core.Instance) (results []any, errs []error, err error) {
	results = make([]any, len(ins))
	errs = make([]error, len(ins))
	tickets := make([]*Ticket, 0, len(ins))
	for _, in := range ins {
		t, serr := p.Submit(ctx, in)
		if serr != nil {
			err = fmt.Errorf("batch: submit instance %d: %w", len(tickets), serr)
			break
		}
		tickets = append(tickets, t)
	}
	for i, t := range tickets {
		results[i], errs[i] = t.Wait()
	}
	return results, errs, err
}

// Close drains the queue and stops the shards. Submit fails with ErrClosed afterwards; Close is idempotent. This
// is the graceful-drain primitive: queued and in-flight instances finish
// (Close blocks for them), only new submissions are refused.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	if !already {
		close(p.jobs)
	}
	p.mu.Unlock()
	if already {
		return
	}
	p.wg.Wait()
}

func (p *Pool) shard(id int) {
	defer p.wg.Done()
	for t := range p.jobs {
		// Injected queue stall: delay the slot return, so the bounded
		// queue looks full longer than the work it actually holds.
		p.inj.Stall(t.ctx, faultinject.QueueStall)
		// Return the queue slot on dequeue, not completion: the bound
		// covers waiting work, matching the pre-token semantics where the
		// jobs channel itself was the bound.
		p.space <- struct{}{}
		p.run(id, t)
	}
}

func (p *Pool) run(id int, t *Ticket) {
	p.inflight.Add(1)
	start := time.Now()
	defer func() {
		p.busy[id].Add(int64(time.Since(start)))
		p.inflight.Add(-1)
		if t.err != nil {
			p.failed.Add(1)
		} else {
			p.completed.Add(1)
		}
		close(t.done)
	}()
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("batch: solver panic: %v", r)
		}
	}()
	if err := t.ctx.Err(); err != nil {
		t.err = err
		return
	}
	// Injected slow shard: stall before solving, waking early if the
	// instance's deadline fires (the solve then starts with a dead context
	// and resolves as a deadline failure — or a partial result).
	p.inj.Stall(t.ctx, faultinject.ShardSlow)
	if p.inj.Fires(faultinject.SolvePanic) {
		panic("faultinject: injected solver panic")
	}
	t.res, t.err = p.opts.Solve(t.ctx, t.in)
	// Injected deadline overrun: a solver that ignores cancellation and
	// keeps the shard busy past its deadline — deliberately not woken by
	// ctx.Done.
	p.inj.StallHard(faultinject.DeadlineOverrun)
}
