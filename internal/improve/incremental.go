package improve

import "repro/internal/core"

// This file implements the incremental candidate re-evaluation machinery of
// the driver. The invariants it relies on:
//
//  1. Per-fragment versions. The live state carries a version counter per
//     fragment, bumped whenever a match touching that fragment is added,
//     removed, or restricted. Simulations never bump versions: they run
//     on the live state under a trail mark, which suppresses bumps
//     (state.bump).
//
//  2. Recorded read sets. A simulation records every fragment whose match
//     data it consults (all per-fragment reads funnel through
//     state.fragMatchIDs and state.degree), together with the live version
//     at read time. A cached gain is reusable iff every recorded fragment
//     still has its recorded version: the simulation would replay the exact
//     same event sequence, so the gain is bit-identical to a fresh run.
//     A producer must therefore read only fragments that can emit a
//     candidate (the I3 path enumerates its inner I2 attempts over the
//     re-linked fragment's partners alone, enum.AppendI2): over-reading
//     stays correct, but every extra read is a way for the gain to go stale
//     and be re-simulated for nothing.
//
//  3. Value-independent gains. Attempt gains are accumulated as a running
//     delta over match additions/removals/restrictions (state.delta), never
//     as a difference of whole-state sums, so a gain does not depend on
//     matches the attempt never touched — neither logically nor through
//     floating-point summation order.
//
//  4. Lazy TPA contributions. tpaBatch consults a fragment's current
//     contribution only after finding a positive placement for it, so
//     candidates do not read (and therefore do not depend on) fragments
//     that cannot participate in their improvement.
//
// Together these make the incremental driver accept exactly the same
// attempt sequence as full re-evaluation (enforced against the test-side
// oracle by TestIncrementalMatchesFull and TestLazySelectionMatchesFull).
// The enumeration subsystem (internal/improve/enum) caches candidate windows
// under the same version-counter scheme, so the candidate set is likewise
// bit-identical to from-scratch enumeration (TestIncrementalEnumMatchesFull).

// readEntry is one recorded fragment read: the fragment plus the live
// version at first read.
type readEntry struct {
	fr  core.FragRef
	ver uint64
}

// readRecorder captures the fragments a simulation reads, with the live
// version current at read time. One recorder per candidate evaluation; the
// live version counters are only ever read here. Read sets are small (a
// simulation touches a handful of fragments), so a linear-scanned slice
// beats a map on both the first-read dedup check and the downstream
// iteration — and recording order becomes deterministic, which keeps every
// structure derived from read sets (the lazy engine's dependency lists)
// deterministic too.
//
// The driver records a whole refill's simulations into one recorder: each
// simulation's read set is reads[start:], appended after the previous
// ones.
type readRecorder struct {
	vers  *versions
	reads []readEntry
	start int
}

func (r *readRecorder) note(fr core.FragRef) {
	for _, e := range r.reads[r.start:] {
		if e.fr == fr {
			return // first read wins
		}
	}
	r.reads = append(r.reads, readEntry{fr: fr, ver: r.vers.of(fr)})
}

// alignKey identifies one site-word alignment — score of H-site h against
// M-site m at orientation rev under the instance σ — packed into two words
// for cheap hashing (fragment indices fit 20 bits, site bounds 21, far
// beyond any constructible instance; rev rides the top bit).
type alignKey struct {
	h, m uint64
}

func packSite(s core.Site) uint64 {
	return uint64(s.Species)<<62 | uint64(s.Frag)<<42 | uint64(s.Lo)<<21 | uint64(s.Hi)
}

func mkAlignKey(h, m core.Site, rev bool) alignKey {
	k := alignKey{h: packSite(h), m: packSite(m)}
	if rev {
		k.h |= 1 << 63
	}
	return k
}

// alignMemo caches site-word alignment scores. Scores depend only on the
// instance's words and σ, both fixed for the lifetime of a solve, so the
// memo is shared by every simulation, TPA run, and replay of one solve.
type alignMemo map[alignKey]float64

// placeKey identifies one fit-placement query — fragment x at orientation
// rev into the window [lo, hi) of fragment z — packed into two words so map
// lookups hash 16 bytes instead of a 40-byte struct (placements are the
// hottest memo in candidate simulation; the packing measurably cuts
// per-candidate hashing cost). Fragment indices fit 30 bits and window
// bounds 32, both far beyond any constructible instance.
type placeKey struct {
	a, b uint64
}

func mkPlaceKey(x core.FragRef, rev bool, z core.FragRef, lo, hi int) placeKey {
	a := uint64(x.Sp)<<63 | uint64(z.Sp)<<62 | uint64(x.Idx)<<31 | uint64(z.Idx)<<1
	if rev {
		a |= 1
	}
	return placeKey{a: a, b: uint64(lo)<<32 | uint64(uint32(hi))}
}

// placeMemo caches Pareto placement frontiers. Like site-word scores they
// depend only on the instance words and σ, so one memo serves every
// simulation and TPA batch of a solve. The frontiers are copied into one
// slab the memo owns (the alignment scratch reuses its own result buffer on
// the next call); a get hands out a capacity-clipped view of the slab that
// stays valid for the rest of the solve, since the slab is only appended
// to.
//
// The memo is the hottest lookup structure of candidate simulation — every
// TPA zone probes it twice per fragment — and a generic map spends most of
// each probe in hashing and control-group machinery. It is therefore a flat
// open-addressed table: entries are only ever inserted (a memo never
// deletes), so linear probing with doubling growth suffices, and the common
// hit is one multiply-mix, one slot load, and one 16-byte key compare.
// The table is stored as parallel key/value/used arrays rather than one
// slice of structs: the probe loop touches only keys (16 bytes) and the
// occupancy bytes, so a miss chain walks two dense arrays instead of
// dragging each slot's value through the cache, and the hot negative probe
// stays within a couple of cache lines. reset empties the memo for the
// next solve and keeps every array, so a reused state's memo stops growing
// once it has seen its largest solve.
type placeMemo struct {
	keys []placeKey
	vals []slabSpan
	used []bool
	mask uint64
	n    int
	slab []placement
}

// slabSpan locates one memoized frontier in placeMemo.slab.
type slabSpan struct{ off, n int32 }

// reset empties the memo, sizing a new one's table at 1,024 slots.
func (pm *placeMemo) reset() {
	const initSlots = 1 << 10
	if pm.keys == nil {
		pm.keys = make([]placeKey, initSlots)
		pm.vals = make([]slabSpan, initSlots)
		pm.used = make([]bool, initSlots)
		pm.mask = initSlots - 1
	}
	clear(pm.used)
	pm.n = 0
	pm.slab = pm.slab[:0]
}

// pmHash mixes the packed key words. The packing concentrates entropy in a
// few bit fields, so both words get a multiply spread and a fold before
// indexing.
func pmHash(k placeKey) uint64 {
	h := (k.a ^ 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	h ^= k.b * 0x94D049BB133111EB
	return h ^ (h >> 29)
}

func (pm *placeMemo) get(k placeKey) ([]placement, bool) {
	i := pmHash(k) & pm.mask
	for {
		if !pm.used[i] {
			return nil, false
		}
		if pm.keys[i] == k {
			return pm.at(pm.vals[i]), true
		}
		i = (i + 1) & pm.mask
	}
}

// at returns the slab view of one memoized frontier.
func (pm *placeMemo) at(sp slabSpan) []placement {
	return pm.slab[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// put memoizes a copy of v under k and returns the copy.
func (pm *placeMemo) put(k placeKey, v []placement) []placement {
	if 2*(pm.n+1) > len(pm.keys) {
		pm.grow()
	}
	sp := slabSpan{off: int32(len(pm.slab)), n: int32(len(v))}
	pm.slab = append(pm.slab, v...)
	i := pmHash(k) & pm.mask
	for {
		if !pm.used[i] {
			pm.keys[i], pm.vals[i], pm.used[i] = k, sp, true
			pm.n++
			return pm.at(sp)
		}
		if pm.keys[i] == k {
			pm.vals[i] = sp
			return pm.at(sp)
		}
		i = (i + 1) & pm.mask
	}
}

func (pm *placeMemo) grow() {
	oldKeys, oldVals, oldUsed := pm.keys, pm.vals, pm.used
	n := 2 * len(oldKeys)
	pm.keys = make([]placeKey, n)
	pm.vals = make([]slabSpan, n)
	pm.used = make([]bool, n)
	pm.mask = uint64(n - 1)
	for i := range oldKeys {
		if !oldUsed[i] {
			continue
		}
		j := pmHash(oldKeys[i]) & pm.mask
		for pm.used[j] {
			j = (j + 1) & pm.mask
		}
		pm.keys[j], pm.vals[j], pm.used[j] = oldKeys[i], oldVals[i], true
	}
}
