package improve

import (
	"repro/internal/improve/enum"
)

// fullReeval is the driver's reference round loop, plugged in through
// Options.engine: every round it enumerates every candidate from scratch
// (a fresh Enumerator, no piece cache), simulates every one of them (no gain
// cache), and accepts the argmax under the production engine's total order —
// strictly best gain, ties to the enum.Less-least candidate. It shares
// nothing incremental with improveLazy, so agreement between the two
// triangulates the lazy engine's staleness tracking and the enumerator's
// piece cache together. It applies the same acceptance rule (the accepted
// attempt must strictly raise the fixed-order total, state.raisesTotal).
// Simulations run in place on the live state, and cancellation is honored
// at round boundaries only.
func fullReeval(opt Options, st *state, _ *enum.Enumerator,
	canceled func() error, maxRounds int, floor float64, stats *Stats) error {

	full, border := opt.Methods&FullOnly != 0, opt.Methods&BorderOnly != 0
	for ; stats.Rounds < maxRounds; stats.Rounds++ {
		if err := canceled(); err != nil {
			if opt.Partial {
				stats.Partial = true
				return nil
			}
			return err
		}
		cands := newEnumerator(full, border, st.pairs).Candidates(enumView{st: st})
		stats.Evaluated += len(cands)
		gains := make([]float64, len(cands))
		for i, c := range cands {
			gains[i] = st.simulate(c, nil, nil) // no read recorder: nothing is cached
		}
		// Accept the argmax whose application strictly raises the
		// fixed-order total; a candidate failing that is passed over for
		// this round only.
		before := st.score()
		passed := make([]bool, len(cands))
		var best int
		for {
			best = -1
			bestGain := floor
			for i, g := range gains {
				if passed[i] {
					continue
				}
				if g > bestGain || (best >= 0 && g == bestGain && enum.Less(cands[i], cands[best])) {
					best, bestGain = i, g
				}
			}
			if best < 0 || st.raisesTotal(cands[best], before) {
				break
			}
			passed[best] = true
		}
		if best < 0 {
			return nil
		}
		if err := replayAccept(st, &opt, stats, cands[best], gains[best]); err != nil {
			return err
		}
	}
	return nil
}
