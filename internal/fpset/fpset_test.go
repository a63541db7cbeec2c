package fpset

import "testing"

// TestSetMatchesMap holds the set against a map through inserts past
// several growths, a Reset, and reuse after it.
func TestSetMatchesMap(t *testing.T) {
	var s Set
	s.Reset()
	for round := 0; round < 3; round++ {
		in := make(map[uint64]bool)
		for i := uint64(0); i < 5000; i++ {
			fp := Mix(i*7 + uint64(round))
			if i%3 == 0 {
				s.Insert(fp)
				s.Insert(fp) // a second insert is a no-op
				in[fp] = true
			}
		}
		for i := uint64(0); i < 5000; i++ {
			fp := Mix(i*7 + uint64(round))
			if s.Has(fp) != in[fp] {
				t.Fatalf("round %d: Has(%#x) = %v, want %v", round, fp, s.Has(fp), in[fp])
			}
		}
		if s.used != len(in) {
			t.Fatalf("round %d: %d keys counted, %d inserted", round, s.used, len(in))
		}
		s.Reset()
		for fp := range in {
			if s.Has(fp) {
				t.Fatalf("round %d: %#x survived Reset", round, fp)
			}
		}
	}
}

// TestResetWrapsEpoch: when the epoch counter wraps, Reset clears the
// slots for real, so a key from 2³² resets ago is not found again.
func TestResetWrapsEpoch(t *testing.T) {
	var s Set
	s.Reset()
	s.Insert(42)
	s.epoch = ^uint32(0)
	s.epochs[42&uint64(len(s.keys)-1)] = 1
	s.Reset()
	if s.epoch != 1 || s.Has(42) {
		t.Fatalf("after the wrap: epoch %d, Has(42) = %v", s.epoch, s.Has(42))
	}
}
