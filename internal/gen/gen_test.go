package gen

import (
	"math/rand"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// mixedCfg returns a configuration with every transaction shape enabled.
func mixedCfg(seed int64, unique bool) Config {
	return Config{
		Txns:           7,
		Objects:        3,
		OpsPerTxn:      3,
		ReadFraction:   0.55,
		UniqueWrites:   unique,
		PAbort:         0.15,
		PCommitPending: 0.1,
		PNoTryC:        0.1,
		PPendingOp:     0.1,
		Relax:          5,
		Seed:           seed,
	}
}

// isContiguous reports whether every transaction's events form one block
// (no interleaving). Note this is stronger than the paper's t-sequential,
// which is defined through ≺RT and therefore treats a serial history with
// a never-t-complete transaction as "overlapping".
func isContiguous(h *history.History) bool {
	evs := h.Events()
	last := make(map[history.TxnID]int)
	for i, e := range evs {
		if j, ok := last[e.Txn]; ok && j != i-1 {
			return false
		}
		last[e.Txn] = i
	}
	return true
}

func TestSerialIsAcceptedByAllCriteria(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		h := Serial(mixedCfg(seed, false))
		if !isContiguous(h) {
			t.Fatalf("seed %d: serial generator produced interleaved transactions", seed)
		}
		for _, c := range spec.AllCriteria() {
			if v := spec.Check(h, c); !v.OK {
				t.Fatalf("seed %d: %s rejected a serial history: %s\n%s", seed, c, v.Reason, h)
			}
		}
	}
}

func TestDUOpaqueGeneratorSound(t *testing.T) {
	// The generated witness must verify independently, and the checker
	// must accept (possibly with a different witness).
	for seed := int64(0); seed < 60; seed++ {
		for _, unique := range []bool{false, true} {
			cfg := mixedCfg(seed, unique)
			h, w := DUOpaqueWithWitness(cfg)
			s, err := history.SeqFromHistory(h, w.Order, w.Commit)
			if err != nil {
				t.Fatalf("seed %d: witness order invalid: %v", seed, err)
			}
			if err := spec.VerifySerialization(h, s); err != nil {
				t.Fatalf("seed %d unique=%v: generated witness rejected: %v\n%s", seed, unique, err, h)
			}
			if v := spec.CheckDUOpacity(h); !v.OK {
				t.Fatalf("seed %d unique=%v: checker rejected generated du-opaque history: %s", seed, unique, v.Reason)
			}
		}
	}
}

func TestWitnessAgreesWithChecker(t *testing.T) {
	// The checker's own witness must also pass independent verification —
	// the DFS and the definition are implemented separately.
	for seed := int64(0); seed < 40; seed++ {
		h := DUOpaque(mixedCfg(seed, seed%2 == 0))
		v := spec.CheckDUOpacity(h)
		if !v.OK {
			t.Fatalf("seed %d: rejected: %s", seed, v.Reason)
		}
		if err := spec.VerifySerialization(h, v.Witness()); err != nil {
			t.Fatalf("seed %d: checker witness fails verification: %v", seed, err)
		}
	}
}

// TestPrefixClosureProperty is the executable Corollary 2: every prefix of
// a generated du-opaque history is du-opaque.
func TestPrefixClosureProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := DUOpaque(mixedCfg(seed, false))
		for i := 0; i <= h.Len(); i++ {
			if v := spec.CheckDUOpacity(h.Prefix(i)); !v.OK {
				t.Fatalf("seed %d: prefix %d/%d not du-opaque: %s\n%s",
					seed, i, h.Len(), v.Reason, h.Prefix(i))
			}
		}
	}
}

// TestTheorem10Property: du-opacity implies opacity on every generated
// history, mutated or not (strictness is witnessed by litmus Figure 4).
func TestTheorem10Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 40; seed++ {
		h := DUOpaque(mixedCfg(seed, seed%2 == 0))
		if seed%3 == 1 {
			h, _ = MutateFutureRead(h, rng)
		}
		if seed%3 == 2 {
			h, _ = MutateSourcelessRead(h, rng)
		}
		du := spec.CheckDUOpacity(h).OK
		op := spec.CheckOpacity(h).OK
		if du && !op {
			t.Fatalf("seed %d: du-opaque history is not opaque (contradicts Theorem 10)\n%s", seed, h)
		}
	}
}

// TestTheorem11Property: under unique writes, opacity and du-opacity
// coincide — on generated histories and on their mutants.
func TestTheorem11Property(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 40; seed++ {
		h := DUOpaque(mixedCfg(seed, true))
		switch seed % 4 {
		case 1:
			h, _ = MutateFutureRead(h, rng)
		case 2:
			h, _ = MutateSourcelessRead(h, rng)
		case 3:
			h, _ = MutateAbortWriter(h, rng)
		}
		if !spec.UniqueWrites(h) {
			t.Fatalf("seed %d: generator violated unique writes", seed)
		}
		du := spec.CheckDUOpacity(h).OK
		op := spec.CheckOpacity(h).OK
		if du != op {
			t.Fatalf("seed %d: unique-writes history has du=%v opacity=%v (contradicts Theorem 11)\n%s",
				seed, du, op, h)
		}
	}
}

func TestMutateSourcelessReadDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mutated := 0
	for seed := int64(0); seed < 30 && mutated < 10; seed++ {
		h := DUOpaque(mixedCfg(seed, true))
		m, ok := MutateSourcelessRead(h, rng)
		if !ok {
			continue
		}
		mutated++
		for _, c := range []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity, spec.Opacity} {
			if v := spec.Check(m, c); v.OK {
				t.Fatalf("seed %d: %s accepted a sourceless read", seed, c)
			}
		}
	}
	if mutated == 0 {
		t.Fatal("mutator never applied")
	}
}

func TestMutateFutureReadDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mutated := 0
	for seed := int64(0); seed < 200 && mutated < 10; seed++ {
		h := DUOpaque(mixedCfg(seed, true))
		m, ok := MutateFutureRead(h, rng)
		if !ok {
			continue
		}
		mutated++
		if v := spec.CheckDUOpacity(m); v.OK {
			t.Fatalf("seed %d: du-opacity accepted a read from the future\n%s", seed, m)
		}
	}
	if mutated == 0 {
		t.Fatal("mutator never applied; generator parameters too tame")
	}
}

func TestMutateAbortWriterDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mutated := 0
	for seed := int64(0); seed < 200 && mutated < 10; seed++ {
		h := DUOpaque(mixedCfg(seed, true))
		m, ok := MutateAbortWriter(h, rng)
		if !ok {
			continue
		}
		mutated++
		if v := spec.CheckFinalStateOpacity(m); v.OK {
			t.Fatalf("seed %d: final-state opacity accepted a read from an aborted writer\n%s", seed, m)
		}
	}
	if mutated == 0 {
		t.Fatal("mutator never applied")
	}
}

func TestUniqueWritesMode(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		if h := DUOpaque(mixedCfg(seed, true)); !spec.UniqueWrites(h) {
			t.Fatalf("seed %d: UniqueWrites mode produced duplicate writes", seed)
		}
	}
}

func TestRelaxZeroKeepsSerial(t *testing.T) {
	cfg := mixedCfg(1, false)
	cfg.Relax = -1
	h := DUOpaque(cfg)
	if !isContiguous(h) {
		t.Fatal("Relax<0 should keep transactions contiguous")
	}
	// A fully-committed serial history is also t-sequential in the
	// paper's ≺RT sense.
	all := Config{Txns: 5, Objects: 2, OpsPerTxn: 2, Relax: -1, Seed: 2}
	if h := DUOpaque(all); !h.TSequential() {
		t.Fatal("fully committed serial history should be t-sequential")
	}
}

func TestObjVarNaming(t *testing.T) {
	if objVar(0) != "XA" || objVar(25) != "XZ" || objVar(26) != "XA1" {
		t.Fatalf("objVar mapping: %s %s %s", objVar(0), objVar(25), objVar(26))
	}
}
