// Package lazyrand is math/rand's seeded generator with a seeding that
// costs what the draws touch.
//
// rand.NewSource(seed) fills a 607-word lagged-Fibonacci register by
// running the Park–Miller chain x ← 48271·x mod (2³¹−1) 1 841 times from
// the seed: word i is chain values 21+3i, 22+3i and 23+3i, shifted
// together and XORed with a fixed table. That is ≈ 11 µs and 4.9 KB per
// seeding, while a certify episode draws a few dozen values from each
// generator it seeds. Since x_n = seed·48271ⁿ mod (2³¹−1), any word can be
// computed on its own from a table of the powers 48271ⁿ, so this source's
// Seed only records the seed, and a draw computes the two words it reads
// the first time it reads them. The generator then steps exactly as
// math/rand's does: the values are math/rand's for the same seed, draw for
// draw. Go 1 fixes that sequence for rand.NewSource; the equivalence tests
// of this package guard it.
package lazyrand

import "math/rand"

const (
	regLen   = 607       // register length (math/rand's rngLen)
	regTap   = 273       // lag of the tap (rngTap)
	modulus  = 1<<31 - 1 // Park–Miller modulus (int32max)
	chainLen = 20 + 3*regLen + 1
)

var (
	// powers[n] = 48271ⁿ mod (2³¹−1), the chain's n-th step from seed 1.
	powers [chainLen]uint64
	// cooked is math/rand's rngCooked table, recovered from its output.
	cooked [regLen]int64
)

func init() {
	powers[0] = 1
	for n := 1; n < chainLen; n++ {
		powers[n] = powers[n-1] * 48271 % modulus
	}
	// Seed 1's first regLen draws feed every register word once, leaving
	// the tap and feed indexes where Seed put them. Put each draw in the
	// word it fed, undo the additions newest first, and what is left is
	// the seeded register: chain words XOR rngCooked.
	src := rand.NewSource(1).(rand.Source64)
	var vec [regLen]int64
	tap, feed := 0, regLen-regTap
	for k := 0; k < regLen; k++ {
		feed = (feed + regLen - 1) % regLen
		vec[feed] = int64(src.Uint64())
	}
	for k := 0; k < regLen; k++ {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%regLen, (feed+1)%regLen
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ chainWord(1, i)
	}
}

// chainWord is register word i of a seeding from seed before the cooked
// table is applied.
func chainWord(seed uint64, i int) int64 {
	p := powers[21+3*i:]
	return int64(seed*p[0]%modulus)<<40 ^ int64(seed*p[1]%modulus)<<20 ^ int64(seed*p[2]%modulus)
}

// source is rand.Source64 with lazy seeding. vec[i] is valid only once
// bit i of ready is set.
type source struct {
	seed      uint64
	tap, feed int
	ready     [(regLen + 63) / 64]uint64
	vec       [regLen]int64
}

// New returns a generator seeded with seed that yields exactly what
// rand.New(rand.NewSource(seed)) yields. Re-seeding it with Seed costs a
// few nanoseconds instead of a full register fill, so one generator can
// serve a sequence of seeds. Like math/rand's, it is not safe for
// concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed normalises seed as math/rand does and forgets the register.
func (s *source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, regLen-regTap
	s.ready = [len(s.ready)]uint64{}
}

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += regLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += regLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns register word i, computing it on first touch.
func (s *source) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.ready[i>>6]&bit == 0 {
		s.ready[i>>6] |= bit
		s.vec[i] = chainWord(s.seed, i) ^ cooked[i]
	}
	return s.vec[i]
}
