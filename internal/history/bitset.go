package history

import "math/bits"

// Bits is a multi-word bitset over dense indexes (transactions or
// objects), stored little-endian: bit i lives in word i/64. It replaces
// the single-uint64 masks that capped the index — and with it every exact
// checker and the online monitor — at 64 transactions.
//
// The representation is a plain slice so the hot loops of package spec
// can iterate words directly (`for w := range b { m := b[w] ... }`),
// keeping the one-word case — a history of at most 64 transactions —
// within a few instructions of the old uint64 code path. Sets may be
// ragged: bits beyond len(b)*64 read as zero, and rows of a matrix (the
// index's RTPred and Writers) carry only as many words as their highest
// possible bit requires.
type Bits []uint64

// bitsWords returns the number of words needed for n bits.
func bitsWords(n int) int { return (n + 63) >> 6 }

// MakeBits returns a zeroed bitset with room for n bits.
func MakeBits(n int) Bits { return make(Bits, bitsWords(n)) }

// Test reports whether bit i is set. Bits beyond the slice are zero.
func (b Bits) Test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// Set sets bit i; the receiver must already span it (use SetGrow when it
// may not).
func (b Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i if the receiver spans it.
func (b Bits) Clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << uint(i&63)
	}
}

// SetGrow sets bit i, extending the bitset as needed, and returns the
// (possibly reallocated) bitset — the append idiom.
func (b Bits) SetGrow(i int) Bits {
	for w := i >> 6; len(b) <= w; {
		b = append(b, 0)
	}
	b[i>>6] |= 1 << uint(i&63)
	return b
}

// OnesCount returns the number of set bits.
func (b Bits) OnesCount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// FirstNotIn returns the lowest bit set in b but not in o, or -1.
func (b Bits) FirstNotIn(o Bits) int {
	for w, bw := range b {
		if w < len(o) {
			bw &^= o[w]
		}
		if bw != 0 {
			return w<<6 + bits.TrailingZeros64(bw)
		}
	}
	return -1
}

// Equal reports semantic equality: the same set bits, ignoring trailing
// zero words.
func (b Bits) Equal(o Bits) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for w := 0; w < n; w++ {
		if b[w] != o[w] {
			return false
		}
	}
	for _, w := range b[n:] {
		if w != 0 {
			return false
		}
	}
	for _, w := range o[n:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// CloneWordsInto returns a copy of b with exactly the given word count,
// truncating or zero-padding as needed, in dst's storage when that is
// large enough (dst's contents are overwritten; nil allocates).
func (b Bits) CloneWordsInto(dst Bits, words int) Bits {
	if cap(dst) < words {
		dst = make(Bits, words)
	}
	dst = dst[:words]
	clear(dst[copy(dst, b):])
	return dst
}

// Trimmed returns b without its trailing zero words — the shape of a set
// sized to its highest member, as SetGrow builds it.
func (b Bits) Trimmed() Bits {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// Range calls f for every set bit in ascending order until f returns
// false.
func (b Bits) Range(f func(i int) bool) {
	for w, bw := range b {
		for ; bw != 0; bw &= bw - 1 {
			if !f(w<<6 + bits.TrailingZeros64(bw)) {
				return
			}
		}
	}
}
