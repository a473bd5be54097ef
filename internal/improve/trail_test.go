package improve

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// stateSnap is everything a rollback must restore: the live matches by ID,
// the liveness mask, the free list in order, every fragment's index list
// (in its stored order), the locks, the accumulator and the live version
// counters.
type stateSnap struct {
	live   map[int]core.Match
	alive  []bool
	free   []int32
	lists  [2][][]int32
	locked []core.FragRef
	delta  float64
	vers   [2][]uint64
}

func snapState(st *state) stateSnap {
	s := stateSnap{
		live:   map[int]core.Match{},
		alive:  append([]bool{}, st.alive...),
		free:   append([]int32{}, st.free...),
		locked: append([]core.FragRef{}, st.locked...),
		delta:  st.delta,
	}
	for id, ok := range st.alive {
		if ok {
			s.live[id] = st.matches[id]
		}
	}
	for sp := range st.byFrag {
		fi := &st.byFrag[sp]
		for f := range fi.off {
			s.lists[sp] = append(s.lists[sp], append([]int32{}, fi.list(f)...))
		}
	}
	if st.vers != nil {
		s.vers = [2][]uint64{slices.Clone(st.vers.v[0]), slices.Clone(st.vers.v[1])}
	}
	return s
}

// trailProbe snapshots the state at every mark and compares it after the
// matching rollback, counting what it checked.
type trailProbe struct {
	open     map[*state][]stateSnap
	checked  int
	nested   int // rollbacks of a mark opened inside another
	canceled int // rollbacks of simulations whose context had fired
	fails    []string
}

func (p *trailProbe) hook(st *state, m int, opened bool) {
	snap := snapState(st)
	if opened {
		p.open[st] = append(p.open[st][:m], snap)
		return
	}
	want := p.open[st][m]
	p.open[st] = p.open[st][:m]
	p.checked++
	if m > 0 {
		p.nested++
	}
	if c, ok := st.ctx.(*countCtx); ok && c.polls.Load() > c.after {
		p.canceled++
	}
	if !reflect.DeepEqual(snap, want) && len(p.fails) < 3 {
		p.fails = append(p.fails, fmt.Sprintf("mark %d: state after rollback differs from its snapshot:\n got %+v\nwant %+v", m, snap, want))
	}
}

// TestTrailRollbackRestoresState runs whole solves with every mark
// snapshotted and every rollback compared against its snapshot: top-level
// simulations, I3's nested inner simulations, the acceptance check, and
// simulations cut short by cancellation, over classic and seeded instance
// families.
func TestTrailRollbackRestoresState(t *testing.T) {
	type family struct {
		name string
		in   *core.Instance
		opt  Options
	}
	var fams []family
	for _, s := range []int64{2, 3, 5, 7} {
		cfg := gen.DefaultConfig(s)
		cfg.Regions = 40
		fams = append(fams, family{fmt.Sprintf("classic-%d", s), gen.Generate(cfg).Instance,
			Options{Eps: 0.05, SeedWithFourApprox: s%2 == 1}})
	}
	for _, s := range []int64{2, 6, 7, 9} {
		cfg := gen.DefaultConfig(s)
		cfg.Regions = 120
		cfg.MeanContig = 6
		fams = append(fams, family{fmt.Sprintf("seeded-%d", s), gen.Generate(cfg).Instance,
			Options{Eps: 0.05, Seeded: true}})
	}
	p := &trailProbe{open: map[*state][]stateSnap{}}
	markHook = p.hook
	defer func() { markHook = nil }()
	for _, f := range fams {
		opt := f.opt
		if _, _, err := Improve(f.in, opt); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		// Cancelled partway: simulations cut short must unwind too.
		for _, after := range []int64{3, 40, 300} {
			opt.Ctx = newCountCtx(after)
			opt.Partial = true
			if _, _, err := Improve(f.in, opt); err != nil {
				t.Fatalf("%s cancel %d: %v", f.name, after, err)
			}
		}
		if len(p.fails) > 0 {
			t.Fatalf("%s: %s", f.name, p.fails[0])
		}
	}
	for st, open := range p.open {
		if len(open) > 0 {
			t.Errorf("state %p: %d marks never rolled back", st, len(open))
		}
	}
	if p.checked == 0 || p.nested == 0 || p.canceled == 0 {
		t.Fatalf("probe checked %d rollbacks, %d nested, %d after cancellation: a path went unexercised",
			p.checked, p.nested, p.canceled)
	}
	t.Logf("checked %d rollbacks (%d nested, %d after cancellation)",
		p.checked, p.nested, p.canceled)
}
