package spec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"duopacity/internal/enum"
	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/koenig"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

// These tests pin CheckOpacity's route through du-opacity (Theorem 10,
// Corollary 2) against the frozen per-prefix reference: same verdict, same
// reason, on both the accept path and the bisected fallback.

// farmEpisode records one interleaved episode of the certify-farm
// benchmark shape.
func farmEpisode(t testing.TB, engine string, seed int64) *history.History {
	t.Helper()
	h, _, err := harness.RunInterleaved(harness.Workload{
		Engine: engine, Goroutines: 4, TxnsPerGoroutine: 3, OpsPerTxn: 4, Objects: 4, Seed: seed,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", engine, seed, err)
	}
	return h
}

// pleViolation loads the pinned ple episode: not du-opaque, final-state
// opaque as a whole, not opaque (a read of a value nobody has written yet
// fails at prefix 38) — bisect and walk both do work.
func pleViolation(t testing.TB) *history.History {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "harness", "testdata", "ple_violation.hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := histio.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// responsePrefixes lists the prefix lengths Definition 5 quantifies over
// once invocation-ended proper prefixes are dropped.
func responsePrefixes(h *history.History) []int {
	var ends []int
	for i := 1; i <= h.Len(); i++ {
		if i == h.Len() || h.At(i-1).Kind == history.Res {
			ends = append(ends, i)
		}
	}
	return ends
}

// failingPrefix extracts N from "prefix of length N is not final-state
// opaque: …".
func failingPrefix(t testing.TB, v spec.Verdict) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(v.Reason, "prefix of length %d is not final-state opaque:", &n); err != nil {
		t.Fatalf("unexpected opacity reason %q: %v", v.Reason, err)
	}
	return n
}

// opacityEqualsReference asserts the acceptance criterion with no node
// limit: the reference always decides, so the checker must decide the same
// with the same reason.
func opacityEqualsReference(t testing.TB, h *history.History) spec.Verdict {
	t.Helper()
	got := spec.Check(h, spec.Opacity)
	want := spec.CheckReference(h, spec.Opacity)
	if got.Undecided || got.OK != want.OK || got.Reason != want.Reason {
		t.Fatalf("opacity disagreement\n  new: OK=%v undecided=%v reason=%q\n  ref: OK=%v reason=%q\nhistory:\n%s",
			got.OK, got.Undecided, got.Reason, want.OK, want.Reason, h)
	}
	return got
}

// opacityScope is one notch above enum.DefaultScope — an eighth event, so
// a refuted du search has up to five response prefixes to bisect: 89 680
// histories, ≈ 2 s (≈ 14 s with -race). A third transaction at this length
// costs 1.5 M histories and still cannot hold an opaque history that is not
// du-opaque (the shortest, Figure 4 cut at T3's tryC invocation, has nine
// events); TestOpacityFallbackNamedCases covers that shape.
func opacityScope() enum.Scope {
	s := enum.DefaultScope()
	s.MaxEvents = 8
	return s
}

// TestOpacityExhaustive compares CheckOpacity with the reference on every
// history of opacityScope and, under unique writes, asserts Theorem 11 on
// the fallback path: the walk rejects at exactly i*, the shortest response
// prefix that is not du-opaque. i* comes from the enumeration tree, not
// from the checker: firstBad is inherited from the parent history.
func TestOpacityExhaustive(t *testing.T) {
	accepted, refuted := 0, 0
	n := enum.Walk(opacityScope(), func(node enum.Node) interface{} {
		h := node.H
		firstBad, _ := node.ParentData.(int)
		if h.Len() == 0 {
			return 0
		}
		got := opacityEqualsReference(t, h)
		du := spec.CheckDUOpacity(h).OK
		if du {
			accepted++
		} else {
			refuted++
		}
		if du && !got.OK {
			t.Fatalf("du-opaque but not opaque (Theorem 10):\n%s", h)
		}
		iStar := firstBad
		if iStar == 0 && !du {
			iStar = h.Len()
		}
		if iStar != 0 && spec.UniqueWrites(h) {
			if got.OK {
				t.Fatalf("unique writes, opaque, not du-opaque (Theorem 11):\n%s", h)
			}
			if at := failingPrefix(t, got); at != iStar {
				t.Fatalf("unique writes: walk rejected at prefix %d, want i*=%d\n%s", at, iStar, h)
			}
		}
		if firstBad == 0 && !du && h.At(h.Len()-1).Kind == history.Res {
			firstBad = h.Len()
		}
		return firstBad
	})
	if accepted == 0 || refuted == 0 {
		t.Fatalf("scope misses a path: %d histories, %d du-opaque, %d not", n, accepted, refuted)
	}
}

// TestOpacityFallbackNamedCases pins the histories the fallback path is
// there for.
func TestOpacityFallbackNamedCases(t *testing.T) {
	t.Run("figure3", func(t *testing.T) {
		v := opacityEqualsReference(t, litmus.Figure3())
		if v.OK || failingPrefix(t, v) != litmus.Figure3PrefixLen {
			t.Fatalf("Figure 3 must fail at prefix %d: %s", litmus.Figure3PrefixLen, v)
		}
	})
	t.Run("figure4", func(t *testing.T) {
		// Not du-opaque, writes not unique: the walk from i* accepts.
		h := litmus.Figure4()
		if spec.CheckDUOpacity(h).OK || spec.UniqueWrites(h) {
			t.Fatal("Figure 4 must be non-du-opaque with non-unique writes")
		}
		if v := opacityEqualsReference(t, h); !v.OK {
			t.Fatalf("Figure 4 must stay opaque: %s", v)
		}
	})
	t.Run("ple-golden", func(t *testing.T) {
		h := pleViolation(t)
		if spec.CheckDUOpacity(h).OK {
			t.Fatal("golden history must violate du-opacity")
		}
		opacityEqualsReference(t, h)
	})
	t.Run("node-limit", func(t *testing.T) {
		// The du search bails, so nothing is known about i* and the walk
		// starts at the first prefix: the verdict is the reference's,
		// undecided flag and reason included.
		h := gen.DUOpaque(gen.Config{
			Txns: 10, Objects: 2, OpsPerTxn: 4, ReadFraction: 0.4, Relax: 8, Seed: 101,
		})
		for _, limit := range []int{1, 5} {
			if !spec.CheckDUOpacity(h, spec.WithNodeLimit(limit)).Undecided {
				t.Fatalf("limit %d: the du search must bail for this case to mean anything", limit)
			}
			got := spec.Check(h, spec.Opacity, spec.WithNodeLimit(limit))
			want := spec.CheckReference(h, spec.Opacity, spec.WithNodeLimit(limit))
			if got.OK != want.OK || got.Undecided != want.Undecided || got.Reason != want.Reason {
				t.Fatalf("limit %d:\n  new: %s\n  ref: %s", limit, got, want)
			}
		}
	})
}

// TestOpacityAcceptIsOneSearch is the count-based guard for the accept
// path: on a du-opaque history CheckOpacity explores exactly the nodes of
// one du-opacity search. A per-prefix walk there adds nodes on any machine.
func TestOpacityAcceptIsOneSearch(t *testing.T) {
	h := farmEpisode(t, "tl2", 1)
	du := spec.CheckDUOpacity(h)
	if !du.OK {
		t.Fatalf("recorded tl2 episode must be du-opaque: %s", du)
	}
	if op := spec.CheckOpacity(h); !op.OK || op.Nodes != du.Nodes {
		t.Fatalf("opacity explored %d nodes (OK=%v), one du search explores %d", op.Nodes, op.OK, du.Nodes)
	}
}

// TestOpacityWitnessCoversEveryPrefix: an opacity OK on a deferred-update
// engine's episode carries a du-opaque serialization, and Lemma 1's
// restriction of it serializes every response prefix.
func TestOpacityWitnessCoversEveryPrefix(t *testing.T) {
	for _, engine := range []string{"tl2", "norec", "pdur", "dstm"} {
		for seed := int64(1); seed <= 5; seed++ {
			h := farmEpisode(t, engine, seed)
			v := spec.Check(h, spec.Opacity)
			if !v.OK {
				t.Fatalf("%s seed %d: %s", engine, seed, v)
			}
			if err := spec.VerifySerialization(h, v.Witness()); err != nil {
				t.Fatalf("%s seed %d: opacity witness is not a du-opaque serialization: %v", engine, seed, err)
			}
			for _, i := range responsePrefixes(h) {
				si, err := koenig.RestrictSerialization(h, v.Witness(), i)
				if err == nil {
					err = spec.VerifySerialization(h.Prefix(i), si)
				}
				if err != nil {
					t.Fatalf("%s seed %d: restriction to prefix %d: %v", engine, seed, i, err)
				}
			}
		}
	}
}
