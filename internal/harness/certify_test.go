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
// math/rand, every plan thread and the schedule seeded a 4.9 KB generator
// and the recorded log was copied twice: this function then measured
// 102 984 bytes and 215.0 allocations per tl2 run (Go 1.24, linux/amd64).
// The gate is 0.8× those bytes; the allocation count is logged, since the
// race detector's instrumentation adds a dozen.
func TestEpisodeRunAllocs(t *testing.T) {
	const beforeBytes, beforeAllocs = 102_984, 215.0
	bytes, allocs := episodeRunCost(t, "tl2")
	t.Logf("tl2 episode run: %.0f bytes and %.1f allocations (with math/rand seeding: %d and %.1f)", bytes, allocs, beforeBytes, beforeAllocs)
	if bytes > 0.8*beforeBytes {
		t.Errorf("a tl2 episode run allocates %.0f bytes, want at most %.0f (0.8× what math/rand seeding cost)", bytes, 0.8*beforeBytes)
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
