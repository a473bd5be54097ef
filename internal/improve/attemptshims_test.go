package improve

// Test-only shims over the candKey dispatch: the driver itself works on
// enum.Cand keys straight from the Enumerator (see runCand), while the
// attempt tests build individual keys and apply them to hand-made states.

import (
	"repro/internal/core"
	"repro/internal/improve/enum"
)

// attempt wraps one candidate key for direct application in tests.
type attempt struct {
	key candKey
}

// run applies the attempt to st and returns the gain.
func (at attempt) run(st *state) float64 { return runCand(st, at.key) }

// kind returns the method label "I1", "I2" or "I3".
func (at attempt) kind() string { return at.key.Kind.String() }

// i1Attempt keys the I1 method: plug f into the window [wLo, wHi) on g.
func i1Attempt(f, g core.FragRef, wLo, wHi int) attempt {
	return attempt{key: candKey{Kind: enum.KindI1, F: f, G: g, A1: wLo, A2: wHi}}
}

// i2Attempt keys the I2 method: join fe of f (window depth fw) to ge of g
// (depth gw).
func i2Attempt(f core.FragRef, fe end, fw int, g core.FragRef, ge end, gw int) attempt {
	return attempt{key: candKey{Kind: enum.KindI2, F: f, G: g, A1: int(fe), A2: fw, B1: int(ge), B2: gw}}
}

// enumerate generates the candidate attempts for the current state from
// scratch — the non-incremental reference enumeration.
func enumerate(st *state, methods Methods) []attempt {
	en := newEnumerator(methods&FullOnly != 0, methods&BorderOnly != 0, st.pairs)
	keys := en.Candidates(enumView{st: st})
	out := make([]attempt, len(keys))
	for i, k := range keys {
		out[i] = attempt{key: k}
	}
	return out
}
