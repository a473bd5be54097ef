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
// piece cache together. Simulations run inline; the oracle ignores the eval
// pool, and cancellation is honored at round boundaries only.
func fullReeval(opt Options, st *state, _ *enum.Enumerator,
	_ *EvalPool, _ enum.Runner, canceled func() error,
	maxRounds int, floor float64, stats *Stats) error {

	full, border := opt.Methods&FullOnly != 0, opt.Methods&BorderOnly != 0
	for ; stats.Rounds < maxRounds; stats.Rounds++ {
		if err := canceled(); err != nil {
			if opt.Partial {
				stats.Partial = true
				return nil
			}
			return err
		}
		cands := enum.New(full, border, st.pairs).Candidates(enumView{st: st}, nil)
		stats.Evaluated += len(cands)
		best, bestGain := -1, floor
		for i, c := range cands {
			sim := st.clone() // no read recorder: nothing is cached
			sim.delta = 0
			g := runCand(sim, c)
			sim.release()
			if g > bestGain || (best >= 0 && g == bestGain && enum.Less(c, cands[best])) {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			return nil
		}
		if err := replayAccept(st, &opt, stats, cands[best], bestGain); err != nil {
			return err
		}
	}
	return nil
}
