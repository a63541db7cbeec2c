package harness

import (
	"context"
	"runtime"
	"testing"

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
// spec.CheckAll is spec.Check's — OK, Undecided, Reason and rendering,
// witness included — with Check's node count unless an offered
// serialization settled it (an accept with no nodes).
func TestCertifyCheckAllMatchesCheck(t *testing.T) {
	criteria := spec.AllCriteria()
	episodes := 300
	if testing.Short() {
		episodes = 30
	}
	settled, rejected := 0, 0
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
				offered := got.OK && got.Nodes == 0
				if got.OK != want.OK || got.Undecided != want.Undecided || got.Reason != want.Reason ||
					!offered && got.Nodes != want.Nodes || got.String() != want.String() {
					t.Fatalf("%s episode %d %v:\n  CheckAll: %s (%d nodes)\n  Check:    %s (%d nodes)", eng, ep, c, got, got.Nodes, want, want.Nodes)
				}
				if offered {
					settled++
				}
				if !got.OK {
					rejected++
				}
			}
		}
	}
	t.Logf("%d verdicts settled by an offered serialization, %d rejections", settled, rejected)
	if settled == 0 || rejected == 0 {
		t.Fatalf("the corpus misses a path: %d settled, %d rejected", settled, rejected)
	}
}

// TestCheckAllWitnessAfterCancel: a verdict CheckAll settled with an
// offered serialization searches for its own witness when first asked;
// with the check's context cancelled by then the search cannot run, and
// the offered order — the du-opacity witness, which the criterion's own
// engine accepted — is what renders.
func TestCheckAllWitnessAfterCancel(t *testing.T) {
	cfg := CertConfig{Workload: certifyShape, Episodes: 1, Interleaved: true}.WithDefaults()
	cfg.Engine = "tl2"
	ctx, cancel := context.WithCancel(context.Background())
	r, err := CertifyEpisodeCtx(ctx, cfg, 0, spec.AllCriteria())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	du := r.Verdicts[spec.DUOpacity]
	if !du.OK {
		t.Fatalf("tl2 episode must be du-opaque: %s", du)
	}
	if v := r.Verdicts[spec.FinalStateOpacity]; !v.OK || v.Nodes != 0 {
		t.Fatalf("final-state opacity: want an accept settled by the du-opacity witness, got %s (%d nodes)", v, v.Nodes)
	}
	for _, c := range []spec.Criterion{spec.TMS2, spec.RCO, spec.FinalStateOpacity} {
		// Every transaction takes part, so the offered order is the du one.
		if v := r.Verdicts[c]; v.OK && v.Nodes == 0 {
			if got, want := v.Witness().String(), du.Witness().String(); got != want {
				t.Fatalf("%v after cancel: witness %s, want the offered du-opacity order %s", c, got, want)
			}
		}
	}
	for _, c := range []spec.Criterion{spec.StrictSerializability, spec.Serializability} {
		if v := r.Verdicts[c]; !v.OK || v.Nodes != 0 || v.Witness() == nil {
			t.Fatalf("%v after cancel: %s (%d nodes), want an accept settled by an offer, with a witness", c, v, v.Nodes)
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
