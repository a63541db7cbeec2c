package koenig

import (
	"testing"

	"duopacity/internal/gen"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

// completeCfg generates histories in which every transaction is complete
// (the hypothesis of Lemma 4 and Theorem 5): no pending operations.
func completeCfg(seed int64) gen.Config {
	return gen.Config{
		Txns:         6,
		Objects:      3,
		OpsPerTxn:    3,
		ReadFraction: 0.5,
		PAbort:       0.2,
		PNoTryC:      0.15,
		Relax:        5,
		Seed:         seed,
	}
}

// TestLemma1PrefixSerializations is the executable Lemma 1: restricting a
// serialization of H to any prefix yields a serialization of the prefix
// whose sequence is a subsequence of seq(S).
func TestLemma1PrefixSerializations(t *testing.T) {
	check := func(t *testing.T, h *history.History) {
		t.Helper()
		v := spec.CheckDUOpacity(h)
		if !v.OK {
			t.Fatalf("history not du-opaque: %s", v.Reason)
		}
		full := v.Witness().Order()
		for i := 0; i <= h.Len(); i++ {
			si, err := RestrictSerialization(h, v.Witness(), i)
			if err != nil {
				t.Fatalf("prefix %d: %v", i, err)
			}
			if err := spec.VerifySerialization(h.Prefix(i), si); err != nil {
				t.Fatalf("prefix %d: restriction is not a serialization: %v", i, err)
			}
			if !isSubsequence(si.Order(), full) {
				t.Fatalf("prefix %d: %v is not a subsequence of %v", i, si.Order(), full)
			}
		}
	}
	t.Run("figure-1", func(t *testing.T) { check(t, litmus.Figure1()) })
	t.Run("figure-2-j5", func(t *testing.T) { check(t, litmus.Figure2Family(5)) })
	t.Run("figure-6", func(t *testing.T) { check(t, litmus.Figure6()) })
	for seed := int64(0); seed < 15; seed++ {
		h := gen.DUOpaque(completeCfg(seed))
		t.Run("generated", func(t *testing.T) { check(t, h) })
	}
}

func isSubsequence(sub, full []history.TxnID) bool {
	j := 0
	for _, x := range full {
		if j < len(sub) && sub[j] == x {
			j++
		}
	}
	return j == len(sub)
}

// TestLemma4LiveSetOrder is the executable Lemma 4: on histories whose
// transactions are all complete, the reordering yields a serialization in
// which T_k precedes every transaction that succeeds its live set.
func TestLemma4LiveSetOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := gen.DUOpaque(completeCfg(seed))
		if !h.Complete() {
			t.Fatalf("seed %d: generator produced incomplete transactions", seed)
		}
		v := spec.CheckDUOpacity(h)
		if !v.OK {
			t.Fatalf("seed %d: not du-opaque: %s", seed, v.Reason)
		}
		s, err := LiveSetOrder(h, v.Witness())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := spec.VerifySerialization(h, s); err != nil {
			t.Fatalf("seed %d: reordered sequence is not a serialization: %v\nbefore: %s\nafter:  %s",
				seed, err, v.Witness(), s)
		}
		for _, k := range h.Txns() {
			for _, m := range h.Txns() {
				if k != m && h.SucceedsLiveSet(k, m) && s.Position(k) > s.Position(m) {
					t.Fatalf("seed %d: T%d ≺LS T%d but order is %s", seed, k, m, s)
				}
			}
		}
	}
}

// TestKoenigGraphProperties builds G_H on bounded instances and checks the
// hypotheses of König's Path Lemma: connectivity and finite branching,
// plus the existence of a full-depth path — the object from which
// Theorem 5 assembles a serialization of the limit.
func TestKoenigGraphProperties(t *testing.T) {
	histories := map[string]*history.History{
		"figure-1":    litmus.Figure1(),
		"figure-2-j5": litmus.Figure2Family(5),
		"figure-6":    litmus.Figure6(),
	}
	for seed := int64(0); seed < 5; seed++ {
		histories["generated"] = gen.DUOpaque(completeCfg(seed))
		for name, h := range histories {
			g, err := BuildGraph(h, 6)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !g.Connected() {
				t.Errorf("%s: G_H is not connected", name)
			}
			if d := g.MaxOutDegree(); d > 6*len(g.Levels) {
				t.Errorf("%s: out-degree %d exceeds the per-level bound", name, d)
			}
			path := g.DeepestPath()
			if path == nil {
				t.Fatalf("%s: no root-to-leaf path", name)
			}
			// The path's final vertex carries a serialization of H itself.
			last := path[len(path)-1]
			if err := spec.VerifySerialization(h, last.S); err != nil {
				t.Errorf("%s: path endpoint is not a serialization of H: %v", name, err)
			}
		}
	}
}

// TestTheorem5BoundedLimitClosure drives the Theorem 5 scenario: an
// ever-extending chain of prefixes of a complete du-opaque history always
// admits serializations that extend each other along a path of G_H, so the
// (bounded) limit is du-opaque with the path's endpoint as witness.
func TestTheorem5BoundedLimitClosure(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := gen.DUOpaque(completeCfg(seed))
		g, err := BuildGraph(h, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		path := g.DeepestPath()
		if path == nil {
			t.Fatalf("seed %d: no path to the limit level", seed)
		}
		// Along the path, the complete-transaction sequences agree level
		// to level (the edge condition), which is what pins the limit
		// serialization.
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			ca := completeSeq(h, a.S, a.Level)
			cb := completeSeq(h, b.S, a.Level)
			if !sliceEq(ca, cb) {
				t.Fatalf("seed %d: cseq mismatch along the path at level %d", seed, a.Level)
			}
		}
	}
}

// TestFigure2GraphShowsDivergence: on the Figure 2 family the graph exists
// for every finite j (each prefix is du-opaque), but T1's position in every
// leaf serialization is forced to the end — the executable form of
// Proposition 1's impossibility argument for the infinite limit.
func TestFigure2GraphShowsDivergence(t *testing.T) {
	for j := 3; j <= 6; j++ {
		h := litmus.Figure2Family(j)
		g, err := BuildGraph(h, 8)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		leaves := g.Levels[len(g.Levels)-1]
		if len(leaves) == 0 {
			t.Fatalf("j=%d: no leaf serializations", j)
		}
		for _, v := range leaves {
			n := len(v.S.Txns)
			if p := v.S.Position(1); p != n-2 {
				t.Errorf("j=%d: T1 at position %d of %d, want %d (forced to the tail)", j, p, n, n-2)
			}
		}
	}
}

func TestRestrictSerializationFullPrefixIsIdentity(t *testing.T) {
	h := litmus.Figure1()
	v := spec.CheckDUOpacity(h)
	if !v.OK {
		t.Fatal("figure 1 must be du-opaque")
	}
	s, err := RestrictSerialization(h, v.Witness(), h.Len())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), v.Witness().String(); got != want {
		t.Fatalf("full-prefix restriction = %s, want %s", got, want)
	}
}
