package symbol

// Word is a sequence of symbols over the duplicated alphabet: a fragment, a
// padded sequence, or a conjecture sequence.
type Word []Symbol

// Rev returns the reversal of w: the order of symbols is reversed and each
// symbol is individually reversed, so that (uv)ᴿ = vᴿuᴿ and (wᴿ)ᴿ = w.
// The receiver is not modified.
func (w Word) Rev() Word {
	return w.AppendOrient(make(Word, 0, len(w)), true)
}

// AppendOrient appends w to dst, reversed when rev, and returns the
// extended word: Orient without an allocation when dst has room.
func (w Word) AppendOrient(dst Word, rev bool) Word {
	if !rev {
		return append(dst, w...)
	}
	n := len(dst)
	dst = append(dst, w...)
	r := dst[n:]
	for i, s := range w {
		r[len(w)-1-i] = s.Rev()
	}
	return dst
}

// Clone returns a copy of w.
func (w Word) Clone() Word {
	c := make(Word, len(w))
	copy(c, w)
	return c
}

// Equal reports whether w and v are identical symbol sequences.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// StripPads returns w with every padding symbol removed. The receiver is not
// modified; if w contains no pads the original slice is returned.
func (w Word) StripPads() Word {
	n := 0
	for _, s := range w {
		if !s.IsPad() {
			n++
		}
	}
	if n == len(w) {
		return w
	}
	r := make(Word, 0, n)
	for _, s := range w {
		if !s.IsPad() {
			r = append(r, s)
		}
	}
	return r
}

// CountPads returns the number of padding symbols in w.
func (w Word) CountPads() int {
	n := 0
	for _, s := range w {
		if s.IsPad() {
			n++
		}
	}
	return n
}

// Concat returns the concatenation of the given words as a fresh Word.
func Concat(words ...Word) Word {
	n := 0
	for _, w := range words {
		n += len(w)
	}
	r := make(Word, 0, n)
	for _, w := range words {
		r = append(r, w...)
	}
	return r
}

// Sub returns the site w(lo..hi) as a sub-word, using half-open 0-based
// indexing [lo, hi). It panics if the bounds are invalid, matching slice
// semantics. The returned word shares storage with w.
func (w Word) Sub(lo, hi int) Word { return w[lo:hi] }

// Orient returns w if rev is false and wᴿ otherwise.
func (w Word) Orient(rev bool) Word {
	if rev {
		return w.Rev()
	}
	return w
}

// IsPadded reports whether w contains at least one padding symbol.
func (w Word) IsPadded() bool {
	for _, s := range w {
		if s.IsPad() {
			return true
		}
	}
	return false
}

// IsPaddingOf reports whether w can be obtained from s by inserting padding
// symbols (w ∈ P_s in the paper's notation).
func (w Word) IsPaddingOf(s Word) bool {
	j := 0
	for _, c := range w {
		if c.IsPad() {
			continue
		}
		if j >= len(s) || s[j] != c {
			return false
		}
		j++
	}
	return j == len(s)
}

// IsSubsequenceOf reports whether the pad-free content of w is a subsequence
// of s. This is the "subsequence building block" variant of Remark 1.
func (w Word) IsSubsequenceOf(s Word) bool {
	j := 0
	for _, c := range s {
		if j < len(w) && w[j] == c {
			j++
		}
	}
	return j == len(w)
}
