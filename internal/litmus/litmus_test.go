package litmus

import (
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// TestRegistryVerdicts is the figure-reproduction test: every litmus case
// must receive exactly the verdicts the paper (or the registry annotation)
// claims, under every criterion.
func TestRegistryVerdicts(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for crit, want := range c.Expect {
				v := spec.Check(c.H, crit)
				if v.Undecided {
					t.Fatalf("%s: undecided: %s", crit, v.Reason)
				}
				if v.OK != want {
					t.Errorf("%s: got %v, want %v (reason: %s)", crit, v.OK, want, v.Reason)
				}
				if v.OK && crit == spec.DUOpacity {
					if err := v.Witness().Legal(); err != nil {
						t.Errorf("du witness not legal: %v", err)
					}
					if err := v.Witness().MatchesCompletionOf(c.H); err != nil {
						t.Errorf("du witness not a completion: %v", err)
					}
				}
			}
		})
	}
}

// TestFigure1Serialization verifies the paper's concrete serialization
// T2, T3, T1, T4 is among the du-opaque serializations of Figure 1.
func TestFigure1Serialization(t *testing.T) {
	h := Figure1()
	want := []history.TxnID{2, 3, 1, 4}
	found := false
	spec.AllDUSerializations(h, 0, func(s *history.Seq) bool {
		ord := s.Order()
		match := len(ord) == len(want)
		for i := range want {
			if match && ord[i] != want[i] {
				match = false
			}
		}
		if match {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("the paper's serialization T2,T3,T1,T4 was not found")
	}
}

// TestFigure2PrefixesDUOpaqueButLimitNot reproduces Proposition 1: every
// finite member of the family is du-opaque, but in every serialization of
// the j-th member all readers of 0 precede T1 (and T2 follows T1), so T1's
// serialization index grows without bound — the limit has no serialization.
func TestFigure2PrefixesDUOpaqueButLimitNot(t *testing.T) {
	for j := 2; j <= 7; j++ {
		h := Figure2Family(j)
		v := spec.CheckDUOpacity(h)
		if !v.OK {
			t.Fatalf("j=%d: member not du-opaque: %s", j, v.Reason)
		}
		// Every event-prefix is du-opaque too (Corollary 2 on this family).
		for i := 0; i <= h.Len(); i++ {
			if pv := spec.CheckDUOpacity(h.Prefix(i)); !pv.OK {
				t.Fatalf("j=%d: prefix %d not du-opaque: %s", j, i, pv.Reason)
			}
		}
		// In every serialization, T1 sits after all readers of 0 and
		// before T2: position(T1) = j-2, position(T2) = j-1.
		count := spec.AllDUSerializations(h, 0, func(s *history.Seq) bool {
			n := len(s.Txns)
			if s.Position(1) != n-2 || s.Position(2) != n-1 {
				t.Errorf("j=%d: serialization %s does not end with T1,T2", j, s)
			}
			if !s.Txns[n-2].Committed() {
				t.Errorf("j=%d: T1 must commit in %s", j, s)
			}
			return true
		})
		if count == 0 {
			t.Fatalf("j=%d: no serializations enumerated", j)
		}
	}
}

// TestFigure3FinalStateNotPrefixClosed reproduces Figure 3.
func TestFigure3FinalStateNotPrefixClosed(t *testing.T) {
	h := Figure3()
	if v := spec.CheckFinalStateOpacity(h); !v.OK {
		t.Fatalf("H should be final-state opaque: %s", v.Reason)
	}
	hp := h.Prefix(Figure3PrefixLen)
	if v := spec.CheckFinalStateOpacity(hp); v.OK {
		t.Fatalf("prefix H' should not be final-state opaque (got witness %s)", v.Witness())
	}
}

// TestFigure4OpaqueNotDUOpaque reproduces Proposition 2.
func TestFigure4OpaqueNotDUOpaque(t *testing.T) {
	h := Figure4()
	if v := spec.CheckOpacity(h); !v.OK {
		t.Fatalf("Figure 4 should be opaque: %s", v.Reason)
	}
	v := spec.CheckDUOpacity(h)
	if v.OK {
		t.Fatal("Figure 4 should not be du-opaque")
	}
	// The paper's diagnosis: T2 read 1 but no writer of 1 had invoked tryC.
	if v.Reason == "" {
		t.Error("expected a deferred-update refutation reason")
	}
}

// TestFigure4FinalSerialization verifies the paper's claim that the
// final-state serializations of Figure 4 place T3 before T2 with T3
// committed (seq T1,T3,T2 up to the position of the aborted T1).
func TestFigure4FinalSerialization(t *testing.T) {
	v := spec.CheckFinalStateOpacity(Figure4())
	if !v.OK {
		t.Fatalf("final-state opacity rejected: %s", v.Reason)
	}
	s := v.Witness()
	if s.Position(3) > s.Position(2) {
		t.Errorf("T3 must precede T2 in %s", s)
	}
	for _, st := range s.Txns {
		switch st.ID {
		case 1:
			if st.Committed() {
				t.Error("T1 must abort")
			}
		case 3:
			if !st.Committed() {
				t.Error("T3 must commit")
			}
		}
	}
}

// TestFigure2FamilyDegenerate checks the clamped minimum of the family.
func TestFigure2FamilyDegenerate(t *testing.T) {
	h := Figure2Family(0)
	if h.NumTxns() != 2 {
		t.Fatalf("clamped family should have T1 and T2, got %d txns", h.NumTxns())
	}
	if !spec.CheckDUOpacity(h).OK {
		t.Fatal("degenerate family member should be du-opaque")
	}
}

func TestByName(t *testing.T) {
	if c := ByName("figure-4"); c == nil || c.Figure != 4 {
		t.Fatal("ByName(figure-4) failed")
	}
	if ByName("no-such-case") != nil {
		t.Fatal("ByName should return nil for unknown names")
	}
}

// TestCasesAreWellFormed ensures every litmus history is well-formed and
// every expected map covers all criteria.
func TestCasesAreWellFormed(t *testing.T) {
	names := make(map[string]bool)
	for _, c := range Cases() {
		if names[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		names[c.Name] = true
		if c.H == nil || c.H.Len() == 0 {
			t.Errorf("%s: empty history", c.Name)
		}
		for _, crit := range spec.AllCriteria() {
			if _, ok := c.Expect[crit]; !ok {
				t.Errorf("%s: missing expectation for %s", c.Name, crit)
			}
		}
	}
}
