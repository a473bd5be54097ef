package batch

import (
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/score"
)

// sigCache maps scorer identity to its compiled matrix, so the many
// instances of one alphabet that share a σ table compile it exactly once.
// The matrix's derived forms ride along: Transposed and the
// integer-quantized Int matrix are both cached on the Compiled itself
// (sync.Once), so int-mode batch solves quantize one alphabet exactly once
// no matter how many shards race on it.
//
// Identity is the scorer interface value itself (for the common *score.Table
// the pointer), which is precisely the "same σ" relation batch workloads
// express by reusing one table across instances. Scorers of uncomparable
// dynamic type cannot key a map and fall back to per-submit compilation —
// score.Compile still short-circuits when handed an already-compiled matrix.
type sigCache struct {
	mu sync.Mutex
	m  map[score.Scorer]*score.Compiled
	// hits counts submissions served without compiling (map hits and
	// pre-compiled scorers alike); misses counts dense compiles paid —
	// including per-submit compiles of uncomparable scorers. Exposed via
	// Pool.Counters as the σ-cache hit rate.
	hits   atomic.Int64
	misses atomic.Int64
}

func (c *sigCache) init() { c.m = make(map[score.Scorer]*score.Compiled) }

// get returns sc compiled over region IDs up to maxID, caching by scorer
// identity. Compilation happens under the lock on purpose: when thousands
// of same-σ instances are submitted concurrently, exactly one pays the
// O(maxID²) compile and the rest wait for the pointer instead of burning
// cores on duplicate work.
func (c *sigCache) get(sc score.Scorer, maxID int32) score.Scorer {
	if sc == nil {
		return nil
	}
	if cp, ok := sc.(*score.Compiled); ok && cp.MaxID() >= maxID {
		c.hits.Add(1)
		return cp
	}
	if !reflect.TypeOf(sc).Comparable() {
		c.misses.Add(1)
		return score.Compile(sc, maxID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp, ok := c.m[sc]; ok && cp.MaxID() >= maxID {
		c.hits.Add(1)
		return cp
	}
	c.misses.Add(1)
	cp := score.Compile(sc, maxID)
	c.m[sc] = cp
	return cp
}

// peek reports whether a submission with this scorer would be served from
// cache without paying a fresh compile — the memory-budget gate uses it to
// waive the σ term for alphabets already resident. Never compiles.
func (c *sigCache) peek(sc score.Scorer, maxID int32) bool {
	if sc == nil {
		return true
	}
	if cp, ok := sc.(*score.Compiled); ok && cp.MaxID() >= maxID {
		return true
	}
	if !reflect.TypeOf(sc).Comparable() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.m[sc]
	return ok && cp.MaxID() >= maxID
}
