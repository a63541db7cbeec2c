package spec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"duopacity/internal/history"
)

// randHist is a quick generator of arbitrary (mostly inconsistent)
// well-formed histories, for checking relationships between the criteria
// on inputs neither hand-written nor correct by construction.
type randHist struct {
	H *history.History
}

// Generate implements quick.Generator: a small random history driven by a
// per-transaction automaton, with random read values so that both
// accepted and rejected histories occur.
func (randHist) Generate(r *rand.Rand, _ int) reflect.Value {
	nTxns := 1 + r.Intn(4)
	b := history.NewBuilder()
	type tstate struct{ done bool }
	states := make([]tstate, nTxns+1)
	steps := 3 + r.Intn(14)
	for i := 0; i < steps; i++ {
		k := history.TxnID(1 + r.Intn(nTxns))
		if states[k].done {
			continue
		}
		obj := history.Var(rune('X' + r.Intn(2)))
		val := history.Value(r.Intn(3))
		switch r.Intn(8) {
		case 0:
			b.Commit(k)
			states[k].done = true
		case 1:
			if r.Intn(2) == 0 {
				b.CommitAbort(k)
			} else {
				b.Abort(k)
			}
			states[k].done = true
		case 2, 3, 4:
			b.Read(k, obj, val)
		default:
			b.Write(k, obj, val)
		}
	}
	return reflect.ValueOf(randHist{H: b.History()})
}

var quickCfg = &quick.Config{MaxCount: 250}

// TestQuickDUImpliesOpacityImpliesFinalState checks the containment chain
// of Theorem 10 (and the trivial half of Definition 5) on arbitrary
// histories: du-opaque ⊆ opaque ⊆ final-state opaque.
func TestQuickDUImpliesOpacityImpliesFinalState(t *testing.T) {
	prop := func(rh randHist) bool {
		du := CheckDUOpacity(rh.H).OK
		op := CheckOpacity(rh.H).OK
		fs := CheckFinalStateOpacity(rh.H).OK
		if du && !op {
			return false
		}
		if op && !fs {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExtraEdgesOnlyRestrict: TMS2 and RCO are final-state opacity
// plus constraints, so acceptance implies final-state acceptance.
func TestQuickExtraEdgesOnlyRestrict(t *testing.T) {
	prop := func(rh randHist) bool {
		fs := CheckFinalStateOpacity(rh.H).OK
		if CheckTMS2(rh.H).OK && !fs {
			return false
		}
		if CheckRCO(rh.H).OK && !fs {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWitnessesVerify: every witness the search returns must pass the
// independent, search-free validator.
func TestQuickWitnessesVerify(t *testing.T) {
	prop := func(rh randHist) bool {
		v := CheckDUOpacity(rh.H)
		if !v.OK {
			return true
		}
		return VerifySerialization(rh.H, v.Witness()) == nil
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFinalStateImpliesStrictSerializability: ignoring aborted
// transactions can only make more histories acceptable.
func TestQuickFinalStateImpliesStrictSerializability(t *testing.T) {
	prop := func(rh randHist) bool {
		if !CheckFinalStateOpacity(rh.H).OK {
			return true
		}
		ss := CheckStrictSerializability(rh.H).OK
		ser := CheckSerializability(rh.H).OK
		return ss && ser
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrefixClosureOnAccepted: Corollary 2 on arbitrary accepted
// histories — every prefix of a du-opaque history is du-opaque.
func TestQuickPrefixClosureOnAccepted(t *testing.T) {
	prop := func(rh randHist) bool {
		if !CheckDUOpacity(rh.H).OK {
			return true
		}
		for i := 0; i <= rh.H.Len(); i++ {
			if !CheckDUOpacity(rh.H.Prefix(i)).OK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: checking is a pure function of the history.
func TestQuickDeterminism(t *testing.T) {
	prop := func(rh randHist) bool {
		a := CheckDUOpacity(rh.H)
		b := CheckDUOpacity(rh.H)
		if a.OK != b.OK || a.Nodes != b.Nodes {
			return false
		}
		if a.OK && a.Witness().String() != b.Witness().String() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}
