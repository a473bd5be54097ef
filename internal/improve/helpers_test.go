package improve

import (
	"repro/internal/core"
	"repro/internal/improve/enum"
	"repro/internal/score"
	"repro/internal/symbol"
)

// newState returns a fresh state for one solve of in, starting from seed.
func newState(in *core.Instance, seed *core.Solution, pairs *enum.PairSet) *state {
	st := new(state)
	st.reset(in, seed, pairs)
	return st
}

// newEnumerator returns an Enumerator Reset for one solve over ps.
func newEnumerator(full, border bool, ps *enum.PairSet) *enum.Enumerator {
	en := new(enum.Enumerator)
	en.Reset(full, border, ps)
	return en
}

func newAlphabetWith(names ...string) *symbol.Alphabet {
	al := symbol.NewAlphabet()
	for _, n := range names {
		al.Intern(n)
	}
	return al
}

func newTableWith(al *symbol.Alphabet, entries [][3]any) *score.Table {
	tb := score.NewTable()
	for _, e := range entries {
		a, _ := al.ParseSymbol(e[0].(string))
		b, _ := al.ParseSymbol(e[1].(string))
		tb.Set(a, b, e[2].(float64))
	}
	return tb
}

func wordOf(al *symbol.Alphabet, text string) symbol.Word {
	w, err := al.ParseWord(text)
	if err != nil {
		panic(err)
	}
	return w
}
