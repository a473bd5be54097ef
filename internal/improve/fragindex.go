package improve

// fragIndex is the per-species fragment → live-match-ID index, arena-backed:
// fragment f's ID list occupies ids[off[f] : off[f]+ln[f]] inside a reserved
// block of cp[f] cells. Lists grow by relocating to the arena end with
// doubled capacity (the abandoned block stays behind as garbage), and the
// arena compacts deterministically once garbage dominates. List order is
// insertion order perturbed by swap-deletes — callers must not depend on it
// (fragMatchIDs sorts; degree only counts).
//
// While a trail mark is open (tracing), every edit logs its inverse on undo
// and compaction is deferred, so rollback restores the exact layout — list
// contents, order, offsets and arena length — by unwinding the log. Every
// operation is a pure function of the operation sequence, so a simulation
// and its replay hold identical lists.
type fragIndex struct {
	ids []int32
	off []int32
	ln  []int32
	cp  []int32
	// sumCp tracks Σ cp (live capacity); the arena compacts when its length
	// exceeds 4× this, bounding memory at a small multiple of the live index
	// size.
	sumCp int32
	// tmp is the compaction double-buffer, swapped with ids each pass so
	// steady-state compaction allocates nothing.
	tmp []int32

	tracing bool
	undo    []fiUndo
}

// fiUndo is the inverse of one fragIndex edit on fragment f. An in-place add
// (rel false) overwrote arena cell pos, which held old; a relocating add
// (rel true) moved f from block (off, cp) when the arena was n cells long
// and Σ cp was sumCp. A remove (add false) swap-deleted old from list
// position pos.
type fiUndo struct {
	f, pos, old int32
	off, cp     int32
	n, sumCp    int32
	add, rel    bool
}

// reset sizes the index for n fragments with all lists empty and no trail.
func (fi *fragIndex) reset(n int) {
	fi.ids, fi.undo, fi.tracing = fi.ids[:0], fi.undo[:0], false
	if cap(fi.off) < n {
		fi.off = make([]int32, n)
		fi.ln = make([]int32, n)
		fi.cp = make([]int32, n)
	} else {
		fi.off, fi.ln, fi.cp = fi.off[:n], fi.ln[:n], fi.cp[:n]
	}
	clear(fi.off)
	clear(fi.ln)
	clear(fi.cp)
	fi.sumCp = 0
}

// list returns fragment f's ID list, valid until the next add on f.
func (fi *fragIndex) list(f int) []int32 {
	o := fi.off[f]
	return fi.ids[o : o+fi.ln[f]]
}

// add appends id to fragment f's list.
func (fi *fragIndex) add(f int, id int32) {
	if fi.ln[f] < fi.cp[f] {
		cell := fi.off[f] + fi.ln[f]
		if fi.tracing {
			fi.undo = append(fi.undo, fiUndo{f: int32(f), pos: cell, old: fi.ids[cell], add: true})
		}
		fi.ids[cell] = id
		fi.ln[f]++
		return
	}
	if fi.tracing {
		fi.undo = append(fi.undo, fiUndo{f: int32(f), off: fi.off[f], cp: fi.cp[f],
			n: int32(len(fi.ids)), sumCp: fi.sumCp, add: true, rel: true})
	}
	// Relocate to the arena end with doubled capacity (min 4).
	nc := max(4, 2*fi.cp[f])
	o := int32(len(fi.ids))
	fi.ids = append(fi.ids, fi.list(f)...)
	fi.ids = append(fi.ids, id)
	for int32(len(fi.ids)) < o+nc {
		fi.ids = append(fi.ids, 0)
	}
	fi.sumCp += nc - fi.cp[f]
	fi.off[f], fi.cp[f] = o, nc
	fi.ln[f]++
	if !fi.tracing && int32(len(fi.ids)) > 4*fi.sumCp {
		fi.compact()
	}
}

// remove swap-deletes id from fragment f's list.
func (fi *fragIndex) remove(f int, id int32) {
	l := fi.list(f)
	for i, v := range l {
		if v == id {
			if fi.tracing {
				fi.undo = append(fi.undo, fiUndo{f: int32(f), pos: int32(i), old: id})
			}
			l[i] = l[len(l)-1]
			fi.ln[f]--
			return
		}
	}
}

// rollback unwinds the undo log down to length m, newest edit first.
func (fi *fragIndex) rollback(m int) {
	for k := len(fi.undo) - 1; k >= m; k-- {
		u := &fi.undo[k]
		f := u.f
		switch {
		case u.rel:
			fi.ln[f]--
			fi.ids = fi.ids[:u.n]
			fi.off[f], fi.cp[f], fi.sumCp = u.off, u.cp, u.sumCp
		case u.add:
			fi.ln[f]--
			fi.ids[u.pos] = u.old
		default:
			// Undo a swap-delete: the moved last entry still sits one past
			// the shortened list, so restoring the removed ID at its old
			// position recovers the exact order.
			fi.ids[fi.off[f]+u.pos] = u.old
			fi.ln[f]++
		}
	}
	fi.undo = fi.undo[:m]
}

// compact rewrites every live block front-to-back (fragment order, so the
// result is a pure function of the logical index contents) into the spare
// buffer, then swaps buffers.
func (fi *fragIndex) compact() {
	tmp := fi.tmp
	if cap(tmp) < int(fi.sumCp) {
		tmp = make([]int32, fi.sumCp)
	}
	tmp = tmp[:fi.sumCp]
	w := int32(0)
	for f := range fi.off {
		copy(tmp[w:], fi.list(f))
		fi.off[f] = w
		w += fi.cp[f]
	}
	fi.tmp = fi.ids[:0]
	fi.ids = tmp
}
