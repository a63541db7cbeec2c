// Package fpset is an open-addressing set of 64-bit fingerprints with
// epoch-based O(1) clearing: a slot is occupied only when its epoch matches
// the current one, so Reset is a counter bump rather than a table wipe and
// one set's storage serves search after search. It keys the serialization
// search's memo (package spec) and the schedule explorer's set of prefix
// classes judged du-opaque (package harness); a hit is accepted on the
// fingerprint alone, and each user states its own collision caveat.
package fpset

// Mix is the splitmix64 finalizer: a cheap bijective mixer whose outputs
// serve as Zobrist keys and fold fingerprints, computed on demand instead
// of from tables.
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Set is a set of fingerprints. The zero value is ready once Reset.
type Set struct {
	keys   []uint64
	epochs []uint32
	epoch  uint32
	used   int
}

const minSize = 1024

// Reset empties the set, keeping its storage.
func (t *Set) Reset() {
	if len(t.keys) == 0 {
		t.keys = make([]uint64, minSize)
		t.epochs = make([]uint32, minSize)
	}
	t.epoch++
	if t.epoch == 0 { // epoch counter wrapped: actually clear once
		for i := range t.epochs {
			t.epochs[i] = 0
		}
		t.epoch = 1
	}
	t.used = 0
}

// Has reports whether fp is in the set.
func (t *Set) Has(fp uint64) bool {
	mask := uint64(len(t.keys) - 1)
	for s := fp & mask; ; s = (s + 1) & mask {
		if t.epochs[s] != t.epoch {
			return false
		}
		if t.keys[s] == fp {
			return true
		}
	}
}

// Insert adds fp to the set.
func (t *Set) Insert(fp uint64) {
	if 2*t.used >= len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for s := fp & mask; ; s = (s + 1) & mask {
		if t.epochs[s] != t.epoch {
			t.epochs[s] = t.epoch
			t.keys[s] = fp
			t.used++
			return
		}
		if t.keys[s] == fp {
			return
		}
	}
}

func (t *Set) grow() {
	oldKeys, oldEpochs, oldEpoch := t.keys, t.epochs, t.epoch
	t.keys = make([]uint64, 2*len(oldKeys))
	t.epochs = make([]uint32, 2*len(oldKeys))
	t.epoch = 1
	mask := uint64(len(t.keys) - 1)
	for i, ep := range oldEpochs {
		if ep != oldEpoch {
			continue
		}
		fp := oldKeys[i]
		for s := fp & mask; ; s = (s + 1) & mask {
			if t.epochs[s] != t.epoch {
				t.epochs[s] = t.epoch
				t.keys[s] = fp
				break
			}
		}
	}
}
