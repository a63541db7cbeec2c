package spec_test

import (
	"math/rand"
	"testing"

	"duopacity/internal/gen"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// diffCompare asserts that the optimized engine and the frozen reference
// engine agree on (OK, Reason, Undecided, Nodes) for one history and
// criterion.
//
// Opacity is the exception: the reference walks every response prefix
// (Definition 5 literally) while CheckOpacity goes through du-opacity
// (Theorem 10), so the node counts differ by design and the rule is
// one-directional — whenever the reference decides, the checker decides
// the same with the same reason; the checker may also decide where the
// reference runs out of nodes on a prefix the checker never searches.
func diffCompare(t *testing.T, h *history.History, c spec.Criterion, nodeLimit int) {
	t.Helper()
	got := spec.Check(h, c, spec.WithNodeLimit(nodeLimit))
	want := spec.CheckReference(h, c, spec.WithNodeLimit(nodeLimit))
	same := got.OK == want.OK && got.Undecided == want.Undecided && got.Reason == want.Reason
	if c == spec.Opacity {
		same = same || want.Undecided
	} else {
		same = same && got.Nodes == want.Nodes
	}
	if !same {
		t.Fatalf("%s: engine disagreement\n  new: OK=%v undecided=%v nodes=%d reason=%q\n  ref: OK=%v undecided=%v nodes=%d reason=%q\nhistory:\n%s",
			c, got.OK, got.Undecided, got.Nodes, got.Reason,
			want.OK, want.Undecided, want.Nodes, want.Reason, h)
	}
	if got.OK && c == spec.DUOpacity {
		if err := spec.VerifySerialization(h, got.Witness()); err != nil {
			t.Fatalf("du-opacity witness rejected by the independent validator: %v\nhistory:\n%s", err, h)
		}
	}
}

// TestDifferentialGenerated compares the engines across all criteria on
// generated du-opaque histories and on planted violations of them — the
// deterministic counterpart of FuzzCheckerDifferential.
func TestDifferentialGenerated(t *testing.T) {
	criteria := spec.AllCriteria()
	for seed := int64(1); seed <= 25; seed++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 8, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5,
			PAbort: 0.2, PNoTryC: 0.15, Relax: 5, Seed: seed,
		})
		for _, c := range criteria {
			diffCompare(t, h, c, 200_000)
		}
		if m, ok := gen.MutateFutureRead(h, rand.New(rand.NewSource(seed))); ok {
			for _, c := range criteria {
				diffCompare(t, m, c, 200_000)
			}
		}
	}
}

// TestDifferentialUnderNodeLimit pins the bail behavior: both engines
// explore nodes in the same order, so a tight limit must yield identical
// undecided verdicts and node counts.
func TestDifferentialUnderNodeLimit(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 10, Objects: 2, OpsPerTxn: 4, ReadFraction: 0.4, Relax: 8, Seed: 100 + seed,
		})
		for _, limit := range []int{1, 5, 50} {
			diffCompare(t, h, spec.DUOpacity, limit)
			diffCompare(t, h, spec.FinalStateOpacity, limit)
		}
	}
}
