#!/usr/bin/env sh
# Regenerates BENCH_BASELINE.json, the committed benchmark trajectory the
# CI bench-trajectory job gates against (cmd/benchdiff, >25% wall-time
# regression fails). Run on a quiet machine and commit the result when a PR
# legitimately moves the floor — the seeds and workload sizes here must
# stay in lockstep with .github/workflows/ci.yml.
set -eu
cd "$(dirname "$0")/.."
go run ./cmd/csrbench -json -seed 1 -regions 60 -repeat 3 > BENCH_BASELINE.json
go run ./cmd/csrbench -json -seed 1 -regions 60 -instances 8 -repeat 3 -algs csr-improve,four-approx >> BENCH_BASELINE.json
go run ./cmd/csrbench -json -seed 1 -regions 60 -repeat 3 -int -algs csr-improve,four-approx >> BENCH_BASELINE.json
go run ./cmd/csrbench -json -seed 1 -regions 60 -instances 8 -repeat 3 -int -algs csr-improve,four-approx >> BENCH_BASELINE.json
# Genome-scale seeded row (algorithm=csr-genome, mode=seeded): the pinned
# 5k-region genome-small preset solved with minimizer-seeded sparse
# candidates. Single repeat — and the same invocation measures
# seeded-vs-classic score recovery on the same instance (classic: the
# complete positive-σ mask universe), failing below 0.9 (the quality
# gate rides with the perf row).
go run ./cmd/csrbench -json -seed 1 -preset genome-small -seeded -algs csr-improve     -label csr-genome -seed-accuracy -min-recovery 0.9 >> BENCH_BASELINE.json
# Serving-path sustained-throughput row (algorithm=serve-sustained): csrload
# saturates an in-process csrserve over loopback HTTP; wall_ms is the run's
# total elapsed, so daemon-layer regressions (framing, admission, σ
# affinity, stream-out) trip the same benchdiff wall gate as solver rows.
# Keep the flags in lockstep with the CI bench-trajectory job.
go run ./cmd/csrload -self -rate 0 -requests 32 -instances 4 -regions 60 \
    -seed 1 -shards 4 -queue 128 -repeat 3 -json >> BENCH_BASELINE.json
# Two-tenant fairness row (algorithm=serve-fairness): a paced light tenant
# measured under a heavy tenant's unpaced flood on a deliberately small
# queue; wall_ms is the light tenant's p99, so regressions in fair
# admission's latency isolation trip the wall gate. csrload itself exits
# non-zero if the light tenant is ever rejected.
go run ./cmd/csrload -self -rate 40 -requests 50 -instances 1 -regions 60 \
    -seed 1 -shards 4 -queue 8 -tenant light -tenant2 heavy -tenant2-rate 0 \
    -tenant2-requests 40 -repeat 3 -json >> BENCH_BASELINE.json
echo "wrote BENCH_BASELINE.json:" >&2
cat BENCH_BASELINE.json >&2
