package harness

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// certifyShape is the certify-farm workload's episode: 4 threads × 3
// transactions × 4 operations over 4 objects, interleaved.
var certifyShape = certifyDigestShapes[0]

// allocsPerEpisode is the mean heap bytes and allocations of one call of
// episode over the 25 certify-shape digest episodes, after a warm-up pass.
func allocsPerEpisode(episode func(ep int)) (bytes, allocs float64) {
	run := func() {
		for ep := 0; ep < 25; ep++ {
			episode(ep)
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
	bytes, allocs := allocsPerEpisode(func(ep int) {
		w := certifyShape
		w.Engine = "tl2"
		w.Seed += int64(ep) * episodeSeedStride
		if _, _, err := RunInterleaved(w); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("tl2 episode run: %.0f bytes and %.1f allocations (with a recorder per run: %d and %.1f)", bytes, allocs, beforeBytes, beforeAllocs)
	if bytes > limit {
		t.Errorf("a tl2 episode run allocates %.0f bytes, want at most %.0f", bytes, limit)
	}
}

// TestCertifyEpisodeAllocs gates what a released certify episode — run,
// ingest and the seven checks — allocates. When the run's log was copied
// and replayed by FromEvents and then indexed again by the first check,
// a tl2 episode allocated 51.5 KB in 348 allocations (Go 1.24,
// linux/amd64); the log now goes once into a pooled, live-indexed
// stream. The gate is 16 KB. Under -race sync.Pool drops Puts at random,
// so there the numbers are only logged.
func TestCertifyEpisodeAllocs(t *testing.T) {
	const beforeBytes, beforeAllocs, limit = 51_500, 348, 16_000
	cfg := CertConfig{Workload: certifyShape, Interleaved: true}.WithDefaults()
	cfg.Engine = "tl2"
	criteria := spec.AllCriteria()
	bytes, allocs := allocsPerEpisode(func(ep int) {
		r, err := CertifyEpisodeCtx(context.Background(), cfg, ep, criteria)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	})
	t.Logf("released tl2 certify episode: %.0f bytes and %.1f allocations (run, FromEvents and a rebuilt index: %d and %d)", bytes, allocs, beforeBytes, beforeAllocs)
	if !raceEnabled && bytes > limit {
		t.Errorf("a released tl2 certify episode allocates %.0f bytes, want at most %d", bytes, limit)
	}
}

// TestCertifyReleasedMatchesKept: a certify episode ingests its run into
// a stream from a pool, so an episode decided on a reused stream must
// decide exactly as one on a stream no earlier episode touched, and a
// report that is never released must stay valid while later episodes
// reuse released streams. Each episode is certified twice: on even
// episodes the first report is released before the second is made (which
// can then take its stream) and the second is kept, on odd ones the first
// is kept and the second released. Both must carry the same verdict bits;
// every kept report must, after its engine's last episode, still render
// every verdict as it did when it was made and hold RunInterleaved's
// events; and after a release every verdict of every copy of the report
// must be the zero Verdict.
func TestCertifyReleasedMatchesKept(t *testing.T) {
	criteria := spec.AllCriteria()
	episodes := 100
	if testing.Short() {
		episodes = 20
	}
	bits := func(r EpisodeReport) string {
		var b strings.Builder
		fmt.Fprintf(&b, "skipped=%v", r.Skipped)
		for _, v := range r.Verdicts {
			fmt.Fprintf(&b, "\n%v ok=%v undecided=%v nodes=%d reason=%q", v.Criterion, v.OK, v.Undecided, v.Nodes, v.Reason)
		}
		return b.String()
	}
	renderings := func(r EpisodeReport) string {
		var b strings.Builder
		for _, v := range r.Verdicts {
			fmt.Fprintln(&b, v)
		}
		return b.String()
	}
	type kept struct {
		r    EpisodeReport
		ep   int
		want string
	}
	for _, eng := range []string{"tl2", "norec", "pdur", "dstm", "gl", "ple", "etl"} {
		cfg := CertConfig{Workload: certifyShape, Episodes: episodes, Interleaved: true}.WithDefaults()
		cfg.Engine = eng
		certify := func(ep int) EpisodeReport {
			r, err := CertifyEpisodeCtx(context.Background(), cfg, ep, criteria)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		release := func(r EpisodeReport, ep int) {
			cp := r
			r.Release()
			if r.History != nil {
				t.Fatalf("%s episode %d: after Release the report holds a history", eng, ep)
			}
			if !r.Skipped && len(cp.Verdicts) != len(criteria) {
				t.Fatalf("%s episode %d: a copy holds %d verdicts for %d criteria", eng, ep, len(cp.Verdicts), len(criteria))
			}
			for _, vs := range [][]spec.Verdict{r.Verdicts, cp.Verdicts} {
				for _, v := range vs {
					if v != (spec.Verdict{}) {
						t.Fatalf("%s episode %d: after Release a copy holds the verdict %s", eng, ep, v)
					}
				}
			}
		}
		var keep []kept
		for ep := 0; ep < cfg.Episodes; ep++ {
			first := certify(ep)
			want := bits(first)
			if ep%2 == 0 {
				release(first, ep)
			} else {
				keep = append(keep, kept{first, ep, renderings(first)})
			}
			second := certify(ep)
			if got := bits(second); got != want {
				t.Fatalf("%s episode %d: the second report decides\n%s\nthe first\n%s", eng, ep, got, want)
			}
			if ep%2 == 0 {
				keep = append(keep, kept{second, ep, renderings(second)})
			} else {
				release(second, ep)
			}
		}
		for _, k := range keep {
			if got := renderings(k.r); got != k.want {
				t.Fatalf("%s episode %d: a kept report renders\n%swhen made\n%s", eng, k.ep, got, k.want)
			}
			w := cfg.Workload
			w.Seed += int64(k.ep) * episodeSeedStride
			h, _, err := RunInterleaved(w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(k.r.History.Events(), h.Events()) {
				t.Fatalf("%s episode %d: a kept report's history is not RunInterleaved's", eng, k.ep)
			}
		}
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
			for i, c := range criteria {
				got, want := r.Verdicts[i], spec.Check(r.History, c, spec.WithNodeLimit(cfg.NodeLimit))
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

// placedFromEarlier reports whether the witness of c's verdict in vs, one
// verdict per criterion in spec.AllCriteria order, is the witness of a
// criterion accepted before c, restricted to the transactions c
// serializes: the committed and commit-pending ones for the
// serializability baselines, all of them otherwise.
func placedFromEarlier(h *history.History, vs []spec.Verdict, c spec.Criterion) bool {
	got := vs[slices.Index(spec.AllCriteria(), c)].Witness().String()
	for _, v := range vs {
		if v.Criterion == c {
			return false
		}
		if !v.OK {
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
	all := spec.AllCriteria()
	if du := r.Verdicts[slices.Index(all, spec.DUOpacity)]; !du.OK {
		t.Fatalf("tl2 episode must be du-opaque: %s", du)
	}
	before := make([]string, len(r.Verdicts))
	for i, v := range r.Verdicts {
		before[i] = v.String()
	}
	cancel()
	for _, c := range []spec.Criterion{spec.FinalStateOpacity, spec.StrictSerializability, spec.Serializability} {
		if v := r.Verdicts[slices.Index(all, c)]; !v.OK || v.Nodes != 0 || !placedFromEarlier(r.History, r.Verdicts, c) {
			t.Fatalf("%v: want an accept placed from an earlier witness, got %s (%d nodes)", c, v, v.Nodes)
		}
	}
	for i, v := range r.Verdicts {
		if got := v.String(); got != before[i] {
			t.Fatalf("%v after cancel renders %s, before %s", v.Criterion, got, before[i])
		}
	}
}

// BenchmarkCertifyEpisode prices a certify-farm episode per engine of the
// workload: "run" is RunInterleaved (engine, recorder, stepper, seeding,
// and a FromEvents history), "certify" a released CertifyEpisodeCtx of
// all seven criteria — the run, one ingest into a pooled stream and the
// exact checks — as a farm shard computes it. Episodes cycle through the
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
				r, err := CertifyEpisodeCtx(context.Background(), cfg, i%25, criteria)
				if err != nil {
					b.Fatal(err)
				}
				r.Release()
			}
		})
	}
}
