package improve

import (
	"slices"

	"repro/internal/core"
	"repro/internal/improve/enum"
)

// This file implements the driver's lazy best-first candidate-selection
// engine, the only production round loop. Its reference is the per-round
// evaluate-everything oracle in oracle_test.go: fresh enumeration and fresh
// simulation of every candidate, then an argmax.
//
// Cached gains live in a generation-stamped flat slot array — one slot per
// live candidate, no per-candidate map on any per-round path — and feed an
// indexed max-heap ordered by (gain, enum.Less). Staleness is pushed, not
// polled: a per-fragment inverted dependency index maps every fragment to
// the slots whose recorded gains read it, so an accepted attempt dirties
// exactly the dependents of the fragments its replay bumped, in O(dirty)
// instead of the O(candidates) validity scan per round the map cache needed.
// Candidate identity is maintained by targeted repair: enum.Repair reports
// the enumeration pieces whose values changed, and only the candidate
// blocks generated from those pieces are freed and rebuilt.
//
// Heap invariants (checked by TestLazyHeapRepair):
//
//  1. Every live slot is either in the heap with a current gain, or stale —
//     out of the heap, queued on staleList for re-simulation. Conceptually a
//     stale slot sits in the heap re-keyed to +∞ (its true gain is unknown
//     and unbounded by the old one, since an accepted attempt elsewhere can
//     raise it); popping until the top is current therefore pops exactly the
//     stale set first. The implementation keeps that frontier on staleList
//     instead of materializing infinities, which is the same pop order with
//     fewer sift operations. The one exception is local to a round's
//     acceptance step: a candidate whose application would not strictly
//     raise the fixed-order total is held out of the heap until the
//     round's accept, then pushed back (or dropped, if that accept made it
//     stale).
//  2. A dependency entry (slot, stamp) in deps[fr] is live iff the slot's
//     current stamp equals it. Stamps advance whenever a slot's recorded
//     gain stops being trustworthy — on dirty-marking, and on free (which
//     also guards slot reuse) — so stale index entries self-invalidate and
//     are dropped the next time their fragment's list is swept.
//
// Staleness proof sketch (why a popped current gain is provably current):
// a slot's gain was recorded by a simulation that read exactly the
// fragments in its recorded read set (incremental.go invariants 1–4), at
// the versions then current. Versions only advance during accepted-attempt
// replays on the live state, and every such bump is appended to the
// state's bumpLog, whose fragments are swept through the dependency index
// before the next selection. Therefore: no sweep marked the slot stale ⇒
// no fragment it read was bumped since the recording ⇒ a fresh simulation
// would replay the identical event sequence ⇒ the cached gain is bit-equal
// to a fresh one. Selecting the heap top under (gain, enum.Less) is then
// exactly the oracle's argmax with the same tie-break, so both accept
// identical attempt sequences (TestLazySelectionMatchesFull).

// selSlot is one candidate's cached-gain entry.
type selSlot struct {
	cand    candKey
	gain    float64
	stamp   uint32 // generation of the recorded gain; deps entries cite it
	stale   bool   // gain unknown: queued on staleList, absent from the heap
	hadGain bool   // a gain was recorded at least once (Resimulated counting)
	live    bool
}

// depRef is one inverted-index entry: slot read its fragment at stamp.
type depRef struct {
	slot  int32
	stamp uint32
}

// lazySel owns the slots, the heap, the dependency index, and the
// piece-block registry of one solve's lazy selection engine.
type lazySel struct {
	full, border bool
	nh, nm       int

	slots []selSlot
	free  []int32

	heap      []int32 // slot ids, max-heap by (gain, enum.Less)
	pos       []int32 // slot → heap index, -1 when stale/free
	liveCount int

	deps      [2][][]depRef
	staleList []depRef // slots awaiting (re-)simulation, deterministic order

	// Candidate blocks: the slots generated from each enumeration piece, so
	// a piece change frees and rebuilds exactly its own block. I1 blocks are
	// keyed by the window-piece fragment (every opposite fragment pairs with
	// its windows), I2 blocks by the (H, M) fragment pair, I3 blocks by the
	// H fragment owning the chain links.
	i1 [2][][]int32
	i2 [][]int32 // indexed by pairs.Rank(fi, gi)
	i3 [][]int32
	// pairs is the solve's candidate pair universe; blocks and loops cover
	// only its pairs.
	pairs *enum.PairSet

	// The driver loop's round buffers: the stale frontier, its simulated
	// gains, the recorder whose reads hold every frontier simulation's read
	// set back to back (readEnd[i] ends the i-th), and the candidates held
	// out of the heap during acceptance.
	frontier []int32
	gains    []float64
	rec      readRecorder
	readEnd  []int
	held     []int32
}

// init readies s for a solve, keeping every slot, list and block buffer it
// grew on earlier solves.
func (s *lazySel) init(in *core.Instance, full, border bool, ps *enum.PairSet) {
	s.full, s.border = full, border
	s.nh, s.nm = in.NumFrags(core.SpeciesH), in.NumFrags(core.SpeciesM)
	s.pairs = ps
	s.slots, s.free, s.heap, s.pos = s.slots[:0], s.free[:0], s.heap[:0], s.pos[:0]
	s.staleList, s.liveCount = s.staleList[:0], 0
	for sp, n := range [2]int{s.nh, s.nm} {
		s.deps[sp] = resetLists(s.deps[sp], n)
		if full {
			s.i1[sp] = resetLists(s.i1[sp], n)
		}
	}
	if border {
		s.i2 = resetLists(s.i2, ps.Len())
		s.i3 = resetLists(s.i3, s.nh)
	}
}

// resetLists returns n empty lists, keeping the capacity of every list l
// already holds.
func resetLists[T any](l [][]T, n int) [][]T {
	if cap(l) < n {
		l = append(l[:cap(l)], make([][]T, n-cap(l))...)
	}
	l = l[:n]
	for i := range l {
		l[i] = l[i][:0]
	}
	return l
}

// alloc claims a slot for a new candidate; the gain is unknown, so the slot
// is queued stale.
func (s *lazySel) alloc(c candKey) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = int32(len(s.slots))
		s.slots = append(s.slots, selSlot{})
		s.pos = append(s.pos, -1)
	}
	sl := &s.slots[id]
	// The stamp survives frees and re-allocations monotonically, so index
	// entries of any previous occupant can never match again.
	sl.cand, sl.gain, sl.stale, sl.hadGain, sl.live = c, 0, true, false, true
	s.pos[id] = -1
	s.liveCount++
	s.staleList = append(s.staleList, depRef{slot: id, stamp: sl.stamp})
	return id
}

// freeSlot retires a candidate whose generating piece no longer produces it.
func (s *lazySel) freeSlot(id int32) {
	sl := &s.slots[id]
	if !sl.live {
		return
	}
	if s.pos[id] >= 0 {
		s.heapRemove(id)
	}
	sl.live = false
	sl.stamp++ // invalidates deps entries and pending staleList refs
	s.liveCount--
	s.free = append(s.free, id)
}

// markStale drops a slot's gain: out of the heap, onto the re-simulation
// queue, stamp advanced so surviving index entries die.
func (s *lazySel) markStale(id int32) {
	sl := &s.slots[id]
	if !sl.live || sl.stale {
		return
	}
	if s.pos[id] >= 0 {
		s.heapRemove(id)
	}
	sl.stale = true
	sl.stamp++
	s.staleList = append(s.staleList, depRef{slot: id, stamp: sl.stamp})
}

// dirty sweeps the dependency lists of the bumped fragments, marking every
// slot whose recorded gain read one of them. Duplicate fragments in the
// bump log are harmless: the first sweep empties the list.
func (s *lazySel) dirty(bumped []core.FragRef) {
	for _, fr := range bumped {
		lst := s.deps[fr.Sp][fr.Idx]
		for _, ref := range lst {
			if sl := &s.slots[ref.slot]; sl.live && !sl.stale && sl.stamp == ref.stamp {
				s.markStale(ref.slot)
			}
		}
		s.deps[fr.Sp][fr.Idx] = lst[:0]
	}
}

// record installs a freshly simulated gain: the slot becomes current, its
// read set is registered in the dependency index, and it (re-)enters the
// heap.
func (s *lazySel) record(id int32, gain float64, reads []readEntry) {
	sl := &s.slots[id]
	sl.gain, sl.stale, sl.hadGain = gain, false, true
	for _, r := range reads {
		s.deps[r.fr.Sp][r.fr.Idx] = append(s.deps[r.fr.Sp][r.fr.Idx], depRef{slot: id, stamp: sl.stamp})
	}
	s.heapPush(id)
}

// repair applies enumeration piece changes: each changed piece's candidate
// blocks are freed and rebuilt from the Enumerator's refreshed values.
// Rebuild order follows the (deterministic) change order; when two pieces
// feeding one I2 block both changed, the block is simply rebuilt twice —
// the second pass sees both new values, so the final state is exact.
func (s *lazySel) repair(en *enum.Enumerator, changes []enum.Change) {
	for _, ch := range changes {
		switch ch.Kind {
		case enum.PieceI1Windows:
			s.rebuildI1(en, ch.Frag)
		case enum.PieceI2Depths:
			s.rebuildI2Row(en, ch.Frag)
		case enum.PieceI3Chains:
			s.rebuildI3(en, ch.Frag)
		}
	}
}

// rebuildI1 regenerates the I1 candidates targeting g's windows: every
// pair-universe partner of g plugs into every window, in canonical
// (f, window) order.
func (s *lazySel) rebuildI1(en *enum.Enumerator, g core.FragRef) {
	blk := s.i1[g.Sp][g.Idx]
	for _, id := range blk {
		s.freeSlot(id)
	}
	blk = blk[:0]
	wins := en.Windows(g)
	fsp := g.Sp.Other()
	for _, fi32 := range s.pairs.PartnersOf(g) {
		f := core.FragRef{Sp: fsp, Idx: int(fi32)}
		for _, w := range wins {
			blk = append(blk, s.alloc(candKey{Kind: enum.KindI1, F: f, G: g, A1: w[0], A2: w[1]}))
		}
	}
	s.i1[g.Sp][g.Idx] = blk
}

// rebuildI2Row regenerates every I2 pair block involving fr.
func (s *lazySel) rebuildI2Row(en *enum.Enumerator, fr core.FragRef) {
	if fr.Sp == core.SpeciesH {
		for _, gi := range s.pairs.MPartners(fr.Idx) {
			s.rebuildI2Pair(en, fr.Idx, int(gi))
		}
	} else {
		for _, fi := range s.pairs.HPartners(fr.Idx) {
			s.rebuildI2Pair(en, int(fi), fr.Idx)
		}
	}
}

// rebuildI2Pair regenerates the I2 block of one (H fragment, M fragment)
// pair of the universe from the pair's current end-depth pieces, in
// canonical (fe, ge, fw, gw) order (depth values are emitted increasing,
// matching enum.AppendI2).
func (s *lazySel) rebuildI2Pair(en *enum.Enumerator, fi, gi int) {
	bi := s.pairs.Rank(fi, gi)
	blk := s.i2[bi]
	for _, id := range blk {
		s.freeSlot(id)
	}
	blk = blk[:0]
	f := core.FragRef{Sp: core.SpeciesH, Idx: fi}
	g := core.FragRef{Sp: core.SpeciesM, Idx: gi}
	df, dg := en.EndDepths(f), en.EndDepths(g)
	for fe := enum.LeftEnd; fe <= enum.RightEnd; fe++ {
		for ge := enum.LeftEnd; ge <= enum.RightEnd; ge++ {
			for wi := 0; wi < df[fe].Len(); wi++ {
				for wj := 0; wj < dg[ge].Len(); wj++ {
					blk = append(blk, s.alloc(candKey{
						Kind: enum.KindI2, F: f, G: g,
						A1: fe, A2: df[fe].At(wi),
						B1: ge, B2: dg[ge].At(wj),
					}))
				}
			}
		}
	}
	s.i2[bi] = blk
}

// rebuildI3 regenerates the I3 chain-rewiring candidates of H fragment f.
func (s *lazySel) rebuildI3(en *enum.Enumerator, f core.FragRef) {
	blk := s.i3[f.Idx]
	for _, id := range blk {
		s.freeSlot(id)
	}
	blk = blk[:0]
	for _, ch := range en.ChainLinks(f) {
		blk = append(blk, s.alloc(candKey{Kind: enum.KindI3, F: f, G: ch.G, A1: ch.ID}))
	}
	s.i3[f.Idx] = blk
}

// above reports whether slot a outranks slot b: strictly greater gain, or
// an equal gain with the canonically smaller candidate — a
// first-strict-improvement argmax over the canonical candidate order,
// expressed as a total order.
func (s *lazySel) above(a, b int32) bool {
	ga, gb := s.slots[a].gain, s.slots[b].gain
	if ga != gb {
		return ga > gb
	}
	return enum.Less(s.slots[a].cand, s.slots[b].cand)
}

func (s *lazySel) heapPush(id int32) {
	s.pos[id] = int32(len(s.heap))
	s.heap = append(s.heap, id)
	s.siftUp(int(s.pos[id]))
}

func (s *lazySel) heapRemove(id int32) {
	i := int(s.pos[id])
	last := len(s.heap) - 1
	s.pos[id] = -1
	if i == last {
		s.heap = s.heap[:last]
		return
	}
	moved := s.heap[last]
	s.heap[i] = moved
	s.pos[moved] = int32(i)
	s.heap = s.heap[:last]
	if !s.siftDown(i) {
		s.siftUp(i)
	}
}

func (s *lazySel) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.above(s.heap[i], s.heap[p]) {
			break
		}
		s.swap(i, p)
		i = p
	}
}

func (s *lazySel) siftDown(i int) bool {
	moved := false
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			return moved
		}
		if r := c + 1; r < len(s.heap) && s.above(s.heap[r], s.heap[c]) {
			c = r
		}
		if !s.above(s.heap[c], s.heap[i]) {
			return moved
		}
		s.swap(i, c)
		i, moved = c, true
	}
}

func (s *lazySel) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = int32(i)
	s.pos[s.heap[j]] = int32(j)
}

// peek returns the current best slot without removing it.
func (s *lazySel) peek() (int32, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0], true
}

// improveLazy is the lazy engine's driver loop, the round loop of Improve
// (an engineFunc).
func improveLazy(opt Options, st *state, en *enum.Enumerator,
	canceled func() error, maxRounds int, floor float64, stats *Stats) error {

	sel := &st.sel
	sel.init(st.in, opt.Methods&FullOnly != 0, opt.Methods&BorderOnly != 0, st.pairs)
	// A non-nil bump log arms the live state's version bumps to record the
	// dirty set of each accepted replay (state.bump).
	if st.bumpStore == nil {
		st.bumpStore = make([]core.FragRef, 0, 32)
	}
	st.bumpLog = st.bumpStore[:0]
	defer func() { st.bumpStore = st.bumpLog[:0] }()
	frontier, gains, rec, held := sel.frontier[:0], sel.gains[:0], &sel.rec, sel.held[:0]
	defer func() { sel.frontier, sel.gains, sel.held = frontier[:0], gains[:0], held[:0] }()
	// Rounds starts at the resumed-op count (zero on fresh solves) so a
	// resumed run's round numbering continues the interrupted one's.
	for ; stats.Rounds < maxRounds; stats.Rounds++ {
		if err := canceled(); err != nil {
			if opt.Partial {
				stats.Partial = true
				return nil
			}
			return err
		}
		// Targeted enumeration repair: only pieces whose values moved
		// rebuild their candidate blocks; everything else keeps its slot
		// and its cached gain.
		sel.repair(en, en.Repair(enumView{st: st}))
		if err := canceled(); err != nil {
			if opt.Partial {
				stats.Partial = true
				return nil
			}
			return err
		}
		// Refill: the stale frontier — conceptually the run of +∞-keyed
		// entries at the top of the heap — is re-simulated in one batch, each
		// simulation in place on the live state.
		frontier = frontier[:0]
		for _, ref := range sel.staleList {
			if sl := &sel.slots[ref.slot]; sl.live && sl.stale && sl.stamp == ref.stamp {
				frontier = append(frontier, ref.slot)
			}
		}
		sel.staleList = sel.staleList[:0]
		gains = slices.Grow(gains[:0], len(frontier))[:len(frontier)]
		rec.vers, rec.reads, sel.readEnd = st.vers, rec.reads[:0], sel.readEnd[:0]
		for i := range frontier {
			if canceled() != nil {
				break
			}
			rec.start = len(rec.reads)
			gains[i] = st.simulate(sel.slots[frontier[i]].cand, rec, opt.Ctx)
			sel.readEnd = append(sel.readEnd, len(rec.reads))
		}
		// This check runs before sel.record, so aborting here leaves the
		// live state exactly at the last accepted attempt — the partial
		// result contract.
		if err := canceled(); err != nil {
			if opt.Partial {
				stats.Partial = true
				return nil
			}
			return err
		}
		for i, id := range frontier {
			if sel.slots[id].hadGain {
				stats.Resimulated++
			}
			lo := 0
			if i > 0 {
				lo = sel.readEnd[i-1]
			}
			sel.record(id, gains[i], rec.reads[lo:sel.readEnd[i]])
		}
		stats.Evaluated += len(frontier)
		stats.Popped += len(frontier) // the stale pops of the refill...
		stats.Skipped += sel.liveCount - len(frontier)

		// Acceptance: the best current candidate above the floor whose
		// application strictly raises the fixed-order total. A candidate
		// that fails the check is held out of the heap for the rest of the
		// round and returns, with its recorded gain and read set, once an
		// accept has moved the total — the oracle checks every round afresh,
		// and so does this.
		held = held[:0]
		var before float64
		top, found := int32(0), false
		for {
			id, ok := sel.peek()
			stats.Popped++ // ...plus each current-top inspection deciding the round
			if !ok || sel.slots[id].gain <= floor {
				break // local optimum: every candidate gains ≤ the floor
			}
			if len(held) == 0 {
				before = st.score()
			}
			if st.raisesTotal(sel.slots[id].cand, before) {
				top, found = id, true
				break
			}
			sel.heapRemove(id)
			held = append(held, id)
		}
		if !found {
			break
		}
		// Replay on the live state, collecting the bumped fragments as the
		// next round's dirty set.
		st.bumpLog = st.bumpLog[:0]
		if err := replayAccept(st, &opt, stats, sel.slots[top].cand, sel.slots[top].gain); err != nil {
			return err
		}
		sel.dirty(st.bumpLog)
		for _, id := range held {
			if sl := &sel.slots[id]; sl.live && !sl.stale {
				sel.heapPush(id)
			}
		}
	}
	return nil
}
