package improve

import (
	"math/rand"
	"slices"
	"testing"
)

// fiOracle is the reference implementation of fragIndex: one ID set per
// fragment. List order is unspecified in both, so comparisons sort.
type fiOracle []map[int32]bool

func newFiOracle(n int) fiOracle {
	o := make(fiOracle, n)
	for i := range o {
		o[i] = map[int32]bool{}
	}
	return o
}

func (o fiOracle) sorted(f int) []int32 {
	out := make([]int32, 0, len(o[f]))
	for id := range o[f] {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func checkFragIndex(t *testing.T, tag string, fi *fragIndex, o fiOracle) {
	t.Helper()
	for f := range o {
		got := slices.Clone(fi.list(f))
		slices.Sort(got)
		if want := o.sorted(f); !slices.Equal(got, want) {
			t.Fatalf("%s: frag %d: %v, oracle %v", tag, f, got, want)
		}
	}
}

// TestFragIndexMatchesMapOracle drives the arena-backed index through random
// add/remove sequences — heavy enough to force list relocations and arena
// compactions — against a map oracle, then checks that a traced edit run
// rolls back to the exact layout and that a reset reuses the arena.
func TestFragIndexMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	const nFrags = 37
	for round := 0; round < 3; round++ {
		var fi fragIndex
		fi.reset(nFrags)
		o := newFiOracle(nFrags)
		nextID := int32(1)

		mutate := func(fi *fragIndex, o fiOracle, ops int) {
			for k := 0; k < ops; k++ {
				f := r.Intn(nFrags)
				if len(o[f]) > 0 && r.Intn(3) == 0 {
					var id int32
					for id = range o[f] {
						break
					}
					fi.remove(f, id)
					delete(o[f], id)
				} else {
					fi.add(f, nextID)
					o[f][nextID] = true
					nextID++
				}
			}
		}

		mutate(&fi, o, 1400)
		checkFragIndex(t, "random edits", &fi, o)

		// Drain most lists to leave garbage behind, then verify again.
		for f := 0; f < nFrags; f++ {
			for id := range o[f] {
				if r.Intn(4) != 0 {
					fi.remove(f, id)
					delete(o[f], id)
				}
			}
		}
		mutate(&fi, o, 400)
		checkFragIndex(t, "post-drain", &fi, o)

		// Edits under tracing — relocations included, compaction deferred —
		// must roll back to the exact layout, not just the same sets.
		before := fragIndex{ids: slices.Clone(fi.ids), off: slices.Clone(fi.off),
			ln: slices.Clone(fi.ln), cp: slices.Clone(fi.cp), sumCp: fi.sumCp}
		fi.tracing = true
		for k := 0; k < 500; k++ {
			f := r.Intn(nFrags)
			if l := fi.list(f); len(l) > 0 && r.Intn(3) == 0 {
				fi.remove(f, l[r.Intn(len(l))])
			} else {
				fi.add(f, nextID)
				nextID++
			}
		}
		fi.rollback(0)
		fi.tracing = false
		if !slices.Equal(fi.ids, before.ids) || !slices.Equal(fi.off, before.off) ||
			!slices.Equal(fi.ln, before.ln) || !slices.Equal(fi.cp, before.cp) || fi.sumCp != before.sumCp {
			t.Fatalf("round %d: rollback did not restore the index layout", round)
		}
		checkFragIndex(t, "rolled back", &fi, o)

		// reset must clear every list while reusing the arena.
		fi.reset(nFrags)
		for f := 0; f < nFrags; f++ {
			if len(fi.list(f)) != 0 {
				t.Fatalf("round %d: frag %d non-empty after reset", round, f)
			}
		}
	}
}
