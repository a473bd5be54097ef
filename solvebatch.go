package fragalign

// Batch solving: many instances, one persistent worker pool. SolveBatch is
// the slice-in/slice-out form; BatchPool is the streaming form used by
// cmd/csrbatch. Both wrap internal/batch, which owns the shards, the
// bounded queue, and the per-alphabet cache of compiled σ matrices.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// FaultInjector arms the chaos sequence points inside a batch pool (see
// internal/faultinject): solver panics, slow shards, queue-return stalls,
// deadline overruns, σ-cache drops. Nil — the default — injects nothing.
type FaultInjector = faultinject.Injector

// WithFaultInjector arms fault injection on a batch pool. Batch APIs only;
// nil restores the default (no faults).
func WithFaultInjector(inj *FaultInjector) Option {
	return func(c *solveCfg) { c.inject = inj }
}

// ErrQueueFull is returned by BatchPool.TrySubmit when the submission
// queue has no free slot. Servers translate it into backpressure the
// client can see — csrserve answers 429 with a Retry-After hint.
var ErrQueueFull = batch.ErrQueueFull

// MemEstimate is the memory cost model's per-instance breakdown (see
// WithMemBudget and EstimateMem).
type MemEstimate = batch.MemEstimate

// OverBudgetError is returned by Submit/TrySubmit when the memory cost
// model puts an instance over the pool's WithMemBudget cap; it carries the
// estimate so frontends can answer structured rejects — csrserve turns it
// into a 413 body with the byte counts.
type OverBudgetError = batch.OverBudgetError

// EstimateMem runs the admission cost model on one instance: the bytes a
// solve would pin for the compiled σ, DP scratch, and solver state. Solve
// options shape the σ term: WithIntScore(true) adds the quantized matrix,
// its transpose and their positive-cell indexes, per nonzero σ cell like
// the float64 forms. The same model gates WithMemBudget pools (which
// additionally waive the σ term for cached alphabets).
func EstimateMem(in *Instance, opts ...Option) MemEstimate {
	return batch.EstimateMem(in, newSolveCfg(opts).intScore)
}

// BatchCounters is a snapshot of a BatchPool's queue, solve, and σ-cache
// counters (see internal/batch.Counters); csrserve exports it at /metrics.
type BatchCounters = batch.Counters

// BatchPool solves a stream of instances with one algorithm over a
// persistent sharded worker pool. Submissions are bounded (WithQueueDepth)
// and individually cancelable; tickets resolve in any order but carry
// submission indices, and each instance's result is byte-identical to what
// sequential Solve produces, regardless of shard count.
//
//	pool := fragalign.NewBatchPool(fragalign.CSRImprove, fragalign.WithShards(8))
//	defer pool.Close()
//	t, _ := pool.Submit(ctx, in)
//	res, err := t.Wait()
type BatchPool struct {
	pool *batch.Pool
	cfg  solveCfg // the pool's solve configuration, per-submission base
}

// submitCfgKey carries a submission's merged solve configuration from
// Submit to the shard that solves it, so internal/batch stays
// instance-generic.
type submitCfgKey struct{}

// BatchTicket is the pending result of one submitted instance.
type BatchTicket struct {
	t *batch.Ticket
}

// Index is the ticket's submission sequence number.
func (t *BatchTicket) Index() int { return t.t.Index }

// Done is closed when the ticket's result is ready; select on it to
// multiplex many pending tickets without a goroutine per Wait.
func (t *BatchTicket) Done() <-chan struct{} { return t.t.Done() }

// Wait blocks for the result.
func (t *BatchTicket) Wait() (*Result, error) {
	v, err := t.t.Wait()
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// NewBatchPool starts a batch pool solving with alg. Solve options apply to
// every instance; WithShards, WithQueueDepth, and WithPerInstanceTimeout
// shape the pool itself. Close the pool to release its goroutines.
func NewBatchPool(alg Algorithm, opts ...Option) *BatchPool {
	cfg := newSolveCfg(opts)
	p := batch.New(batch.Options{
		Shards:    cfg.shards,
		Queue:     cfg.queue,
		Inject:    cfg.inject,
		MemBudget: cfg.memBudget,
		Quantized: cfg.intScore,
		Solve: func(ctx context.Context, in *core.Instance) (any, error) {
			sc, ok := ctx.Value(submitCfgKey{}).(*solveCfg)
			if !ok {
				sc = &cfg
			}
			return solveInstance(ctx, in, alg, *sc)
		},
	})
	return &BatchPool{pool: p, cfg: cfg}
}

// Submit enqueues an instance, blocking while the queue is full. The
// returned ticket resolves once a shard solves the instance; ctx (nil means
// Background) cancels queue wait and solve alike. opts apply to this
// submission only, over a copy of the pool's options — e.g.
// WithPartialResults, WithSeededCandidates, WithCheckpoint, WithResume.
// Options that shape the pool itself (WithShards, WithQueueDepth,
// WithPerInstanceTimeout, WithMemBudget, WithFaultInjector) have no
// per-submission effect (the memory budget also charges the pool's own
// WithIntScore mode).
func (bp *BatchPool) Submit(ctx context.Context, in *Instance, opts ...Option) (*BatchTicket, error) {
	return bp.submit(ctx, in, opts, bp.pool.Submit)
}

// TrySubmit is the non-blocking form of Submit: when the bounded queue has
// no free slot it fails immediately with ErrQueueFull instead of waiting.
// This is the admission-control entry point for serving frontends that
// must shed load rather than absorb it.
func (bp *BatchPool) TrySubmit(ctx context.Context, in *Instance, opts ...Option) (*BatchTicket, error) {
	return bp.submit(ctx, in, opts, bp.pool.TrySubmit)
}

func (bp *BatchPool) submit(ctx context.Context, in *Instance, opts []Option,
	do func(context.Context, *core.Instance) (*batch.Ticket, error)) (*BatchTicket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts) > 0 {
		sc := bp.cfg
		for _, o := range opts {
			o(&sc)
		}
		ctx = context.WithValue(ctx, submitCfgKey{}, &sc)
	}
	var cancel context.CancelFunc
	if bp.cfg.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, bp.cfg.timeout)
	}
	t, err := do(ctx, in)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if cancel != nil {
		go func() {
			<-t.Done()
			cancel()
		}()
	}
	return &BatchTicket{t: t}, nil
}

// Counters snapshots the pool's queue, solve, and σ-cache counters.
func (bp *BatchPool) Counters() BatchCounters { return bp.pool.Counters() }

// Shards returns the pool's concurrency.
func (bp *BatchPool) Shards() int { return bp.pool.Shards() }

// Close drains queued work and stops the pool's goroutines.
func (bp *BatchPool) Close() { bp.pool.Close() }

// SolveBatch solves every instance with alg over a sharded worker pool and
// returns results in input order — deterministically: results[i] is
// byte-identical to Solve(ins[i], alg, opts...) no matter how many shards
// ran (WithShards; default GOMAXPROCS). Per-instance failures leave a nil
// slot in results and are joined into err, so callers can consume the
// successes of a partially failed batch.
func SolveBatch(ctx context.Context, ins []*Instance, alg Algorithm, opts ...Option) ([]*Result, error) {
	bp := NewBatchPool(alg, opts...)
	defer bp.Close()
	results := make([]*Result, len(ins))
	tickets := make([]*BatchTicket, 0, len(ins))
	var errs []error
	for i, in := range ins {
		t, err := bp.Submit(ctx, in)
		if err != nil {
			errs = append(errs, fmt.Errorf("fragalign: submit instance %d (%s): %w", i, in.Name, err))
			break // submission fails only when ctx fired or the pool closed
		}
		tickets = append(tickets, t)
	}
	for i, t := range tickets {
		r, err := t.Wait()
		if err != nil {
			errs = append(errs, fmt.Errorf("fragalign: instance %d (%s): %w", i, ins[i].Name, err))
			continue
		}
		results[i] = r
	}
	return results, errors.Join(errs...)
}
