package lazyrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// draw calls one Rand method, chosen by op, and returns its result as
// bits. The methods cover everything the tree calls (Intn, Int63,
// Int63n, Float64) and the rest of math/rand's derivations from Int63 and
// Uint64, on both the power-of-two and the rejection paths.
func draw(r *rand.Rand, op byte) uint64 {
	switch op % 15 {
	case 0:
		return r.Uint64()
	case 1:
		return uint64(r.Int63())
	case 2:
		return uint64(r.Intn(4))
	case 3:
		return uint64(r.Intn(7))
	case 4:
		return uint64(r.Intn(1 << 40))
	case 5:
		return math.Float64bits(r.Float64())
	case 6:
		return uint64(r.Int63n(3))
	case 7:
		return uint64(r.Int31n(1000))
	case 8:
		return uint64(r.Uint32())
	case 9:
		return uint64(r.Int())
	case 10:
		return uint64(math.Float32bits(r.Float32()))
	case 11:
		return math.Float64bits(r.NormFloat64())
	case 12:
		return math.Float64bits(r.ExpFloat64())
	case 13:
		var h uint64
		for _, v := range r.Perm(6) {
			h = h<<3 | uint64(v)
		}
		return h
	default:
		s := []uint64{0, 1, 2, 3, 4, 5}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s[0]<<15 | s[1]<<12 | s[2]<<9 | s[3]<<6 | s[4]<<3 | s[5]
	}
}

// agree draws n values by ops from math/rand and from New for seed,
// re-seeds both with reseed, and draws m more.
func agree(seed, reseed int64, n, m int, ops []byte) error {
	if len(ops) == 0 {
		ops = []byte{0}
	}
	want, got := rand.New(rand.NewSource(seed)), New(seed)
	for i := 0; i < n+m; i++ {
		if i == n {
			want.Seed(reseed)
			got.Seed(reseed)
		}
		op := ops[i%len(ops)]
		if w, g := draw(want, op), draw(got, op); w != g {
			return fmt.Errorf("seed %d, reseed %d at draw %d, op %d: math/rand gave %#x, lazyrand %#x", seed, reseed, i, op%15, w, g)
		}
	}
	return nil
}

// TestSourceMatchesMathRand checks New against rand.NewSource draw for
// draw: 1 300 draws per seed (past the register's 607 words twice), a
// re-seed, then 700 more. The seeds cover the normalisation edges — 0
// and every multiple of 2³¹−1 map to math/rand's fixed replacement,
// negatives wrap — and 10 000 random ones.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 89482311, modulus - 1, modulus, modulus + 1, -modulus, 2 * modulus, -3 * modulus,
		1000 * modulus, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	n := 10_000
	if testing.Short() {
		n = 500
	}
	r := rand.New(rand.NewSource(20261015))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	all := make([]byte, 15)
	for i := range all {
		all[i] = byte(i)
	}
	for i, seed := range seeds {
		// Alternate plain Uint64 draws (the register alone) with the
		// method mix, and vary the mix's phase.
		ops := []byte{0}
		if i%2 == 1 {
			ops = append(all[i%15:], all[:i%15]...)
		}
		if err := agree(seed, seeds[(i+1)%len(seeds)], 1300, 700, ops); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSourceMatchesMathRand lets the fuzzer choose the seeds, where the
// re-seed falls and the method sequence.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(1300), uint16(700), []byte{0})
	f.Add(int64(math.MinInt64), int64(modulus), uint16(607), uint16(608), []byte{2, 5, 13, 14})
	f.Add(int64(-1), int64(math.MaxInt64), uint16(0), uint16(2000), []byte{3, 4, 6, 7, 11, 12})
	f.Fuzz(func(t *testing.T, seed, reseed int64, n, m uint16, ops []byte) {
		if err := agree(seed, reseed, int(n%2048), int(m%2048), ops); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkSeedAndDraw is the cost of one planned thread of the certify
// shape — a seeding and 24 draws — with math/rand and with this source.
func BenchmarkSeedAndDraw(b *testing.B) {
	run := func(b *testing.B, seeded func(seed int64) *rand.Rand) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := seeded(int64(i))
			for j := 0; j < 12; j++ {
				_ = r.Float64() < 0.5
				_ = r.Intn(4)
			}
		}
	}
	b.Run("math-rand", func(b *testing.B) {
		run(b, func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) })
	})
	b.Run("lazyrand", func(b *testing.B) { run(b, New) })
	b.Run("lazyrand-reseed", func(b *testing.B) {
		r := New(0)
		run(b, func(seed int64) *rand.Rand { r.Seed(seed); return r })
	})
}
