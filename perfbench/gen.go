package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/encoding"
	"repro/internal/gen"
)

// item is one generated instance, encoded before any timing starts.
type item struct {
	line  []byte  // one JSONL instance line (encoding.WriteJSONLine)
	truth float64 // the generator's TrueLayoutScore
}

// subSeed derives the generator seed of instance i of a workload, so that
// workloads and instances never share a random stream.
func subSeed(seed int64, workload, i int) int64 {
	return seed*1_000_003 + int64(workload)*7_919 + int64(i)
}

// spread maps index i onto [lo, hi] by a fixed low-discrepancy order, so
// every prefix of a workload's instance list covers the whole size range
// and the size mix does not depend on the seed.
func spread(i, lo, hi int) int {
	const golden = 0.6180339887498949
	f := float64(i) * golden
	f -= float64(int(f))
	return lo + int(f*float64(hi-lo)+0.5)
}

func encode(w *gen.Workload) (item, error) {
	var b bytes.Buffer
	if err := encoding.WriteJSONLine(&b, w.Instance); err != nil {
		return item{}, fmt.Errorf("encode %s: %w", w.Instance.Name, err)
	}
	return item{line: b.Bytes(), truth: w.TrueLayoutScore}, nil
}

// Workload shapes. Sizes are fixed per workload; only content follows the
// seed.
const (
	batchInstances  = 120
	batchMinRegions = 60
	batchMaxRegions = 240

	genomeInstances  = 110
	genomeMinRegions = 1000
	genomeMaxRegions = 1100

	serveRegions      = 60
	serveHitInstances = 240
)

// genBatch builds the batch-improve instances: sizes spread over
// [batchMinRegions, batchMaxRegions], all over one canonical σ sized to the
// largest instance.
func genBatch(seed int64) ([]item, error) {
	ccfg := gen.DefaultConfig(subSeed(seed, 1, -1))
	ccfg.Regions = batchMaxRegions
	can := gen.NewCanonical(ccfg)
	out := make([]item, batchInstances)
	for i := range out {
		cfg := gen.DefaultConfig(subSeed(seed, 1, i))
		cfg.Regions = spread(i, batchMinRegions, batchMaxRegions)
		cfg.Canonical = can
		it, err := encode(gen.Generate(cfg))
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

// genomeConfig is a genome-shaped configuration sized to its own region
// count: the gen.Preset scaling (short contigs, heavy rearrangement, a
// spurious-pair floor) applied to a fresh alphabet, so σ's dimension
// follows the region count. Shrinking the 5k preset's Canonical instead
// would keep its 5,000-region symbol IDs and a multi-GB σ.
func genomeConfig(seed int64, regions int) gen.Config {
	cfg := gen.DefaultConfig(seed)
	cfg.Regions = regions
	scale := float64(regions) / 5000
	cfg.MeanContig = 6
	cfg.Inversions = int(40*scale + 0.5)
	cfg.InversionLen = 25
	cfg.Translocations = int(8*scale + 0.5)
	cfg.Spurious = int(500*scale + 0.5)
	return cfg
}

// genGenome builds the first n genome-seeded instances, each with its own
// σ.
func genGenome(seed int64, n int) ([]item, error) {
	out := make([]item, n)
	for i := range out {
		cfg := genomeConfig(subSeed(seed, 2, i), spread(i, genomeMinRegions, genomeMaxRegions))
		it, err := encode(gen.Generate(cfg))
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

// request is one serve-mixed request, encoded before the run starts.
type request struct {
	due    float64 // seconds after the run starts
	tenant string
	body   []byte
	n      int   // instances in the body
	hit    []int // hit-pool indices of the instances (nil for a fresh-σ request)
}

const (
	hitTenant   = "shared"
	freshTenant = "fresh"
	// freshShare is the share of requests that carry a fresh σ.
	freshShare = 0.15
)

// genServe builds the serve-mixed request stream: n Poisson arrivals at
// rate req/s, conditioned on the n-th falling at n/rate (sorted uniform
// times), so every seed offers the same load over the same span. Exactly
// half the requests carry two instances and exactly freshShare of them a
// fresh σ; which ones follows the seed.
func genServe(seed int64, n int, rate float64) ([]request, error) {
	r := rand.New(rand.NewSource(subSeed(seed, 3, -1)))
	ccfg := gen.DefaultConfig(subSeed(seed, 3, -2))
	ccfg.Regions = serveRegions
	can := gen.NewCanonical(ccfg)
	hits := make([]item, serveHitInstances)
	for i := range hits {
		cfg := gen.DefaultConfig(subSeed(seed, 3, i))
		cfg.Regions = serveRegions
		cfg.Canonical = can
		it, err := encode(gen.Generate(cfg))
		if err != nil {
			return nil, err
		}
		hits[i] = it
	}
	pairs := r.Perm(n)
	fresh := r.Perm(n)
	span := float64(n) / rate
	due := make([]float64, n)
	for i := range due {
		due[i] = r.Float64() * span
	}
	sort.Float64s(due)
	reqs := make([]request, n)
	for i := range reqs {
		q := request{due: due[i], tenant: hitTenant, n: 1}
		if pairs[i] < n/2 {
			q.n = 2
		}
		var body bytes.Buffer
		if float64(fresh[i]) < freshShare*float64(n) {
			q.tenant = freshTenant
			for k := 0; k < q.n; k++ {
				cfg := gen.DefaultConfig(subSeed(seed, 4, 2*i+k))
				cfg.Regions = serveRegions
				it, err := encode(gen.Generate(cfg))
				if err != nil {
					return nil, err
				}
				body.Write(it.line)
			}
		} else {
			for k := 0; k < q.n; k++ {
				h := r.Intn(len(hits))
				q.hit = append(q.hit, h)
				body.Write(hits[h].line)
			}
		}
		q.body = body.Bytes()
		reqs[i] = q
	}
	return reqs, nil
}
