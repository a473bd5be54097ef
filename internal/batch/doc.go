// Package batch solves many CSR instances concurrently over one persistent
// worker pool — the serving building block for high-throughput workloads
// where thousands of instances arrive as a stream rather than one at a
// time.
//
// A Pool owns two shared resources:
//
//   - Shards: a fixed set of solver goroutines that pull submitted
//     instances from a bounded queue. Parallelism comes from solving
//     distinct instances on distinct shards; each solve runs on its
//     shard's goroutine alone.
//   - A per-alphabet cache of compiled σ matrices keyed by scorer
//     identity: thousands of instances sharing one score table compile σ
//     into the sparse matrix once, and the lazily cached transpose
//     (score.Compiled.Transposed) is likewise shared. The JSONL reader
//     (encoding.ReadJSONL) content-deduplicates σ tables, so streamed
//     pipelines hit this cache across process boundaries too.
//
// Submission is bounded and cancelable: Submit blocks while the queue is
// full (respecting the submission context) and each instance carries its
// own context, checked before the solve starts and — sub-round — between
// candidate simulations and inside TPA batches, so a per-instance deadline interrupts even a single long
// improvement round. Results are delivered through Tickets in submission
// order, so output ordering — and, because each solve is deterministic in
// isolation, every per-instance result — is byte-identical regardless of
// the shard count or scheduling (see TestShardCountInvariance).
//
// The public surface is fragalign.SolveBatch / fragalign.NewBatchPool and
// the csrbatch command; this package carries the machinery.
package batch
