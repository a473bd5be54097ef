package serve

import (
	"context"

	fragalign "repro"
)

// Ticket is one pending solve, resolved by the backend pool.
type Ticket interface {
	// Wait blocks until the instance is solved or its context fires.
	Wait() (*fragalign.Result, error)
}

// Pool is the solving backend the server drives: the subset of
// fragalign.BatchPool the HTTP layer needs. It is an interface so tests can
// substitute deterministic backends (blocking tickets, forced rejections);
// production wiring goes through AdaptBatchPool.
type Pool interface {
	// Submit enqueues an instance, blocking while the queue is full. opts
	// override the pool's solve options for this submission only
	// (fragalign.BatchPool.Submit).
	Submit(ctx context.Context, in *fragalign.Instance, opts ...fragalign.Option) (Ticket, error)
	// TrySubmit fails immediately with fragalign.ErrQueueFull instead of
	// blocking — the admission-control primitive behind 429 responses.
	TrySubmit(ctx context.Context, in *fragalign.Instance, opts ...fragalign.Option) (Ticket, error)
	// Counters snapshots the pool's queue, solve, and σ-cache counters.
	Counters() fragalign.BatchCounters
	// Shards is the pool's solver concurrency.
	Shards() int
}

// AdaptBatchPool wraps a fragalign.BatchPool as a serve.Pool.
func AdaptBatchPool(bp *fragalign.BatchPool) Pool { return batchPool{bp} }

type batchPool struct{ bp *fragalign.BatchPool }

func (p batchPool) Submit(ctx context.Context, in *fragalign.Instance, opts ...fragalign.Option) (Ticket, error) {
	t, err := p.bp.Submit(ctx, in, opts...)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (p batchPool) TrySubmit(ctx context.Context, in *fragalign.Instance, opts ...fragalign.Option) (Ticket, error) {
	t, err := p.bp.TrySubmit(ctx, in, opts...)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (p batchPool) Counters() fragalign.BatchCounters { return p.bp.Counters() }
func (p batchPool) Shards() int                       { return p.bp.Shards() }
