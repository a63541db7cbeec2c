package harness

import (
	"context"
	"runtime"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// certifyShape is the certify-farm workload's episode: 4 threads × 3
// transactions × 4 operations over 4 objects, interleaved.
var certifyShape = certifyDigestShapes[0]

// episodeRunCost is the mean heap bytes and allocations of one
// RunInterleaved of engine over the 25 certify-shape digest episodes.
func episodeRunCost(tb testing.TB, engine string) (bytes, allocs float64) {
	tb.Helper()
	run := func() {
		for ep := 0; ep < 25; ep++ {
			w := certifyShape
			w.Engine = engine
			w.Seed += int64(ep) * episodeSeedStride
			if _, _, err := RunInterleaved(w); err != nil {
				tb.Fatal(err)
			}
		}
	}
	run()
	const rounds = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds * 25)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestEpisodeRunAllocs gates what a certify episode's run allocates. With
// a fresh recorder per run, its event log regrown from nil every time,
// this function measured 71 484 bytes and 209.9 allocations per tl2 run
// (Go 1.24, linux/amd64); runInterleaved now takes its recorder and
// generator from a pool. The gate is 0.6× those bytes; the allocation
// count is logged, since the race detector's instrumentation adds a dozen.
// Under -race sync.Pool drops Puts at random, so there the gate is the
// one that held before pooling, 0.8× the 102 984 bytes a run cost with an
// eagerly seeded generator: a bound every run meets even when no Put
// survives.
func TestEpisodeRunAllocs(t *testing.T) {
	const beforeBytes, beforeAllocs = 71_484, 209.9
	limit := 0.6 * beforeBytes
	if raceEnabled {
		limit = 0.8 * 102_984
	}
	bytes, allocs := episodeRunCost(t, "tl2")
	t.Logf("tl2 episode run: %.0f bytes and %.1f allocations (with a recorder per run: %d and %.1f)", bytes, allocs, beforeBytes, beforeAllocs)
	if bytes > limit {
		t.Errorf("a tl2 episode run allocates %.0f bytes, want at most %.0f", bytes, limit)
	}
}

// TestCertifyCheckAllMatchesCheck runs 300 certify-shape episodes of each
// deferred-update engine and of gl, ple and etl (which supply the
// refutations) and asserts that every verdict of the episode's
// spec.CheckAll is spec.Check's — OK, Undecided and Reason — and, for
// every verdict that searched, also its node count and rendering. An
// accept with no nodes was settled by a placement (a search counts its
// first node); its witness must be an earlier accepted one restricted to
// the criterion's transactions (placedFromEarlier).
func TestCertifyCheckAllMatchesCheck(t *testing.T) {
	criteria := spec.AllCriteria()
	episodes := 300
	if testing.Short() {
		episodes = 30
	}
	placed, rejected := 0, 0
	for _, eng := range []string{"tl2", "norec", "pdur", "dstm", "gl", "ple", "etl"} {
		cfg := CertConfig{Workload: certifyShape, Episodes: episodes, Interleaved: true}.WithDefaults()
		cfg.Engine = eng
		for ep := 0; ep < cfg.Episodes; ep++ {
			r, err := CertifyEpisodeCtx(context.Background(), cfg, ep, criteria)
			if err != nil {
				t.Fatal(err)
			}
			if r.Skipped {
				continue
			}
			for _, c := range criteria {
				got, want := r.Verdicts[c], spec.Check(r.History, c, spec.WithNodeLimit(cfg.NodeLimit))
				isPlaced := got.OK && got.Nodes == 0
				if got.OK != want.OK || got.Undecided != want.Undecided || got.Reason != want.Reason ||
					!isPlaced && (got.Nodes != want.Nodes || got.String() != want.String()) {
					t.Fatalf("%s episode %d %v:\n  CheckAll: %s (%d nodes)\n  Check:    %s (%d nodes)", eng, ep, c, got, got.Nodes, want, want.Nodes)
				}
				if isPlaced {
					if !placedFromEarlier(r.History, r.Verdicts, c) {
						t.Fatalf("%s episode %d %v: placed witness [%s] is no earlier accepted witness restricted to its transactions", eng, ep, c, got.Witness())
					}
					placed++
				}
				if !got.OK {
					rejected++
				}
			}
		}
	}
	t.Logf("%d verdicts settled by a placement, %d rejections", placed, rejected)
	if placed == 0 || rejected == 0 {
		t.Fatalf("the corpus misses a path: %d placed, %d rejected", placed, rejected)
	}
}

// placedFromEarlier reports whether the witness of vs[c] is the witness of
// a criterion accepted before c, in spec.AllCriteria order, restricted to
// the transactions c serializes: the committed and commit-pending ones for
// the serializability baselines, all of them otherwise.
func placedFromEarlier(h *history.History, vs map[spec.Criterion]spec.Verdict, c spec.Criterion) bool {
	got := vs[c].Witness().String()
	for _, e := range spec.AllCriteria() {
		if e == c {
			return false
		}
		v, ok := vs[e]
		if !ok || !v.OK {
			continue
		}
		r := &history.Seq{}
		for _, tx := range v.Witness().Txns {
			info := h.Txn(tx.ID)
			if c != spec.StrictSerializability && c != spec.Serializability || info.Committed() || info.CommitPending() {
				r.Txns = append(r.Txns, tx)
			}
		}
		if r.String() == got {
			return true
		}
	}
	return false
}

// TestCheckAllWitnessAfterCancel: the witness of a verdict CheckAll
// settled by a placement is the order its criterion's engine placed, kept
// with the verdict, so cancelling the check's context afterwards changes
// no rendering. On a tl2 episode final-state opacity and the
// serializability baselines are placements.
func TestCheckAllWitnessAfterCancel(t *testing.T) {
	cfg := CertConfig{Workload: certifyShape, Episodes: 1, Interleaved: true}.WithDefaults()
	cfg.Engine = "tl2"
	ctx, cancel := context.WithCancel(context.Background())
	r, err := CertifyEpisodeCtx(ctx, cfg, 0, spec.AllCriteria())
	if err != nil {
		t.Fatal(err)
	}
	if du := r.Verdicts[spec.DUOpacity]; !du.OK {
		t.Fatalf("tl2 episode must be du-opaque: %s", du)
	}
	before := make(map[spec.Criterion]string)
	for c, v := range r.Verdicts {
		before[c] = v.String()
	}
	cancel()
	for _, c := range []spec.Criterion{spec.FinalStateOpacity, spec.StrictSerializability, spec.Serializability} {
		if v := r.Verdicts[c]; !v.OK || v.Nodes != 0 || !placedFromEarlier(r.History, r.Verdicts, c) {
			t.Fatalf("%v: want an accept placed from an earlier witness, got %s (%d nodes)", c, v, v.Nodes)
		}
	}
	for c, v := range r.Verdicts {
		if got := v.String(); got != before[c] {
			t.Fatalf("%v after cancel renders %s, before %s", c, got, before[c])
		}
	}
}

// BenchmarkCertifyEpisode prices a certify-farm episode per engine of the
// workload: "run" is the interleaved run alone (engine, recorder, stepper,
// seeding, FromEvents), "certify" the run plus the exact checks of all
// seven criteria, as a farm shard computes it. Episodes cycle through the
// 25 digest seeds.
func BenchmarkCertifyEpisode(b *testing.B) {
	criteria := spec.AllCriteria()
	for _, eng := range []string{"tl2", "norec", "pdur", "dstm"} {
		cfg := CertConfig{Workload: certifyShape, Episodes: 25, Interleaved: true}.WithDefaults()
		cfg.Engine = eng
		b.Run(eng+"/run", func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				w := cfg.Workload
				w.Seed += int64(i%25) * episodeSeedStride
				h, _, err := RunInterleaved(w)
				if err != nil {
					b.Fatal(err)
				}
				events += h.Len()
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
		b.Run(eng+"/certify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CertifyEpisodeCtx(context.Background(), cfg, i%25, criteria); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
