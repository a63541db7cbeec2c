// Benchmarks regenerating every experiment of the reproduction — one
// benchmark (family) per paper figure, theorem and engine claim; the
// mapping is recorded in DESIGN.md and the measured results in
// EXPERIMENTS.md.
//
// Run with: go test -bench=. -benchmem
package duopacity_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/koenig"
	"duopacity/internal/litmus"
	"duopacity/internal/recorder"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// --- F1..F6: the paper's figures -----------------------------------------

// BenchmarkFig1_DUOpacity checks the paper's Figure 1 (du-opaque, witness
// T2,T3,T1,T4).
func BenchmarkFig1_DUOpacity(b *testing.B) {
	h := litmus.Figure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !spec.CheckDUOpacity(h).OK {
			b.Fatal("figure 1 must be du-opaque")
		}
	}
}

// BenchmarkFig2_PrefixFamily checks ever-longer members of the Figure 2
// family (Proposition 1): cost of deciding du-opacity as the reader chain
// grows.
func BenchmarkFig2_PrefixFamily(b *testing.B) {
	for _, j := range []int{4, 8, 16, 32} {
		h := litmus.Figure2Family(j)
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !spec.CheckDUOpacity(h).OK {
					b.Fatal("family member must be du-opaque")
				}
			}
		})
	}
}

// BenchmarkFig3_FinalState re-derives Figure 3: H is final-state opaque,
// its 4-event prefix is not.
func BenchmarkFig3_FinalState(b *testing.B) {
	h := litmus.Figure3()
	hp := h.Prefix(litmus.Figure3PrefixLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !spec.CheckFinalStateOpacity(h).OK {
			b.Fatal("H must be final-state opaque")
		}
		if spec.CheckFinalStateOpacity(hp).OK {
			b.Fatal("H' must not be final-state opaque")
		}
	}
}

// BenchmarkFig4_OpacityVsDU re-derives Proposition 2 on Figure 4: not
// du-opaque (static deferred-update refutation), yet opaque — CheckOpacity's
// fallback: bisect for the first non-du-opaque prefix, then walk the
// remaining response prefixes with the final-state check.
func BenchmarkFig4_OpacityVsDU(b *testing.B) {
	h := litmus.Figure4()
	b.Run("opacity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !spec.CheckOpacity(h).OK {
				b.Fatal("figure 4 must be opaque")
			}
		}
	})
	b.Run("du-opacity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if spec.CheckDUOpacity(h).OK {
				b.Fatal("figure 4 must not be du-opaque")
			}
		}
	})
}

// BenchmarkFig5_RCO re-derives the Figure 5 separation from the
// read-commit-order definition of [6].
func BenchmarkFig5_RCO(b *testing.B) {
	h := litmus.Figure5()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !spec.CheckDUOpacity(h).OK || spec.CheckRCO(h).OK {
			b.Fatal("figure 5: want du-opaque and not RCO")
		}
	}
}

// BenchmarkFig6_TMS2 re-derives the Figure 6 separation from TMS2.
func BenchmarkFig6_TMS2(b *testing.B) {
	h := litmus.Figure6()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !spec.CheckDUOpacity(h).OK || spec.CheckTMS2(h).OK {
			b.Fatal("figure 6: want du-opaque and not TMS2")
		}
	}
}

// --- L1/L4/T5: the safety machinery --------------------------------------

func benchHistory(seed int64) *history.History {
	return gen.DUOpaque(gen.Config{
		Txns: 8, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5,
		PAbort: 0.2, PNoTryC: 0.1, Relax: 5, Seed: seed,
	})
}

// BenchmarkLemma1_Restriction measures deriving prefix serializations from
// a full serialization (Lemma 1's construction across all prefixes).
func BenchmarkLemma1_Restriction(b *testing.B) {
	h := benchHistory(1)
	v := spec.CheckDUOpacity(h)
	if !v.OK {
		b.Fatal("generated history must be du-opaque")
	}
	s := v.Witness()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 0; p <= h.Len(); p += 4 {
			if _, err := koenig.RestrictSerialization(h, s, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTheorem5_ChainExtension measures building the König graph G_H
// (Theorem 5's object) over a complete du-opaque history.
func BenchmarkTheorem5_ChainExtension(b *testing.B) {
	h := benchHistory(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := koenig.BuildGraph(h, 4)
		if err != nil {
			b.Fatal(err)
		}
		if g.DeepestPath() == nil {
			b.Fatal("no path")
		}
	}
}

// --- T10/T11: the comparison theorems -------------------------------------

// BenchmarkTheorem10_BothCheckers measures deciding du-opacity vs opacity
// on the same histories. On du-opaque ones both run a single du-opacity
// search (Theorem 10); opacity/refuted measures the other path, where du
// is refuted and CheckOpacity bisects and walks: Figure 4 (the walk
// accepts) and the ple-recorded golden violation (the walk rejects).
func BenchmarkTheorem10_BothCheckers(b *testing.B) {
	hs := make([]*history.History, 8)
	for i := range hs {
		hs[i] = benchHistory(int64(10 + i))
	}
	b.Run("du-opacity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !spec.CheckDUOpacity(hs[i%len(hs)]).OK {
				b.Fatal("must be du-opaque")
			}
		}
	})
	b.Run("opacity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !spec.CheckOpacity(hs[i%len(hs)]).OK {
				b.Fatal("must be opaque")
			}
		}
	})
	// The golden ple episode (harness/testdata/ple_violation.hist).
	ple, _, err := harness.RunInterleaved(harness.Workload{
		Engine: "ple", Objects: 3, Goroutines: 4, TxnsPerGoroutine: 2, OpsPerTxn: 4, ReadFraction: 0.5, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		h      *history.History
		opaque bool
	}{{"figure4", litmus.Figure4(), true}, {"ple", ple, false}} {
		c := c
		b.Run("opacity/refuted/"+c.name, func(b *testing.B) {
			if spec.CheckDUOpacity(c.h).OK {
				b.Fatal("must not be du-opaque")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if spec.CheckOpacity(c.h).OK != c.opaque {
					b.Fatalf("opaque must be %v", c.opaque)
				}
			}
		})
	}
}

// BenchmarkTheorem11 checks unique-writes histories for du-opacity, and
// for opacity by Theorem 11 (under unique writes opacity and du-opacity
// coincide, so one unique-writes test plus one du-opacity search decides
// opacity).
func BenchmarkTheorem11(b *testing.B) {
	hs := make([]*history.History, 8)
	for i := range hs {
		hs[i] = gen.DUOpaque(gen.Config{
			Txns: 10, Objects: 3, OpsPerTxn: 3, UniqueWrites: true,
			PAbort: 0.1, Relax: 5, Seed: int64(20 + i),
		})
	}
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !spec.CheckDUOpacity(hs[i%len(hs)]).OK {
				b.Fatal("must be du-opaque")
			}
		}
	})
	b.Run("opacity-via-theorem11", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := hs[i%len(hs)]
			if !spec.UniqueWrites(h) || !spec.CheckDUOpacity(h).OK {
				b.Fatal("theorem 11 route failed")
			}
		}
	})
}

// --- P1: checker scaling ---------------------------------------------------

// BenchmarkCheckerScaling measures the exact du-opacity checker as the
// number of transactions grows (exponential worst case, pruned in
// practice).
func BenchmarkCheckerScaling(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		h := gen.DUOpaque(gen.Config{
			Txns: n, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5, Relax: 5, Seed: int64(n),
		})
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !spec.CheckDUOpacity(h).OK {
					b.Fatal("must be du-opaque")
				}
			}
		})
	}
}

// BenchmarkVerifySerialization measures the search-free witness validator.
func BenchmarkVerifySerialization(b *testing.B) {
	h := benchHistory(3)
	v := spec.CheckDUOpacity(h)
	if !v.OK {
		b.Fatal("must be du-opaque")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := spec.VerifySerialization(h, v.Witness()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- P2/S1/S2: engines -----------------------------------------------------

// BenchmarkEngines measures committed read-modify-write transactions per
// second per engine under parallel load.
func BenchmarkEngines(b *testing.B) {
	for _, name := range engines.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			eng, err := engines.New(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			var vals atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					obj := i % 16
					err := stm.AtomicallyN(eng.Begin, 1_000_000, func(tx stm.Txn) error {
						v, err := tx.Read(obj)
						if err != nil {
							return err
						}
						return tx.Write((obj+1)%16, v+vals.Add(1))
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkEnginesReadOnly measures read-only transactions (8 reads).
func BenchmarkEnginesReadOnly(b *testing.B) {
	for _, name := range engines.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			eng, err := engines.New(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					err := stm.AtomicallyN(eng.Begin, 1_000_000, func(tx stm.Txn) error {
						for o := 0; o < 8; o++ {
							if _, err := tx.Read(o); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkEngineTxnAllocs reports the steady-state allocation cost of
// one transaction per engine, read-only and read-modify-write — the
// gate behind the PR's hot-path surgery (pooled descriptors, slice
// read/write sets). Allocations are per-op, so the read-only tl2,
// norec and pdur rows must report 0 allocs/op.
func BenchmarkEngineTxnAllocs(b *testing.B) {
	for _, name := range engines.Names() {
		name := name
		b.Run(name+"/readonly", func(b *testing.B) {
			eng, err := engines.New(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := stm.AtomicallyN(eng.Begin, 1_000_000, func(tx stm.Txn) error {
					for o := 0; o < 4; o++ {
						if _, err := tx.Read(o); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/rmw", func(b *testing.B) {
			eng, err := engines.New(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := stm.AtomicallyN(eng.Begin, 1_000_000, func(tx stm.Txn) error {
					v, err := tx.Read(i % 16)
					if err != nil {
						return err
					}
					return tx.Write((i+1)%16, v+1)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadOnlyTxnZeroAllocs is the CI gate for the pooled-descriptor
// and slice-read-set rewrite: once the pools are warm, a read-only
// transaction on tl2, norec and pdur performs zero engine-side heap
// allocations. A regression to map read sets, per-Begin descriptor
// allocation or sort.Ints in commit fails this immediately. Under -race
// the transactions still run but the count is not asserted: the race
// detector drops sync.Pool Puts at random, so a pooled descriptor is
// sometimes allocated afresh.
func TestReadOnlyTxnZeroAllocs(t *testing.T) {
	for _, name := range []string{"tl2", "norec", "pdur"} {
		eng, err := engines.New(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		readOnly := func() {
			err := stm.AtomicallyN(eng.Begin, 1_000_000, func(tx stm.Txn) error {
				for o := 0; o < 4; o++ {
					if _, err := tx.Read(o); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		// Warm the descriptor pool and the read-set backing arrays.
		for i := 0; i < 100; i++ {
			readOnly()
		}
		if avg := testing.AllocsPerRun(200, readOnly); avg != 0 && !raceEnabled {
			t.Errorf("%s: read-only txn allocates %.2f objects/op, want 0", name, avg)
		}
	}
}

// BenchmarkRecorderOverhead compares a raw TL2 transaction with the same
// transaction under the history recorder.
func BenchmarkRecorderOverhead(b *testing.B) {
	b.Run("raw", func(b *testing.B) {
		eng, _ := engines.New("tl2", 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := stm.Atomically(eng, func(tx stm.Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				return tx.Write(1, v+1)
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorded", func(b *testing.B) {
		eng, _ := engines.New("tl2", 4)
		rec := recorder.New(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rec.Atomically(func(tx *recorder.Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				return tx.Write(1, v+1)
			}); err != nil {
				b.Fatal(err)
			}
			if i%4096 == 0 {
				rec.Reset() // keep the event log bounded
			}
		}
	})
}

// BenchmarkCertifyEpisode measures one full certification round — run a
// small recorded workload on a fresh engine and decide du-opacity — for a
// deferred-update engine and for the pessimistic one.
func BenchmarkCertifyEpisode(b *testing.B) {
	for _, name := range []string{"tl2", "ple"} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, _, err := harness.RunRecorded(harness.Workload{
					Engine: name, Objects: 4, Goroutines: 4,
					TxnsPerGoroutine: 2, OpsPerTxn: 3, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = spec.CheckDUOpacity(h, spec.WithNodeLimit(2_000_000))
			}
		})
	}
}

// --- Checkfarm: the parallel certification pipeline ------------------------

// BenchmarkCheckfarmCertify measures a 30-episode certification job
// (JobSpec.Run) of the tl2 engine (deterministic interleaved episodes, so every jobs setting
// does byte-identical work) sharded across 1, 2 and 4 workers. Episodes
// are independent CPU-bound units, so on a machine with >= 4 cores the
// jobs=4 case completes the same certification in under half the jobs=1
// wall-clock time; on fewer cores the speedup tracks the core count.
func BenchmarkCheckfarmCertify(b *testing.B) {
	cfg := harness.CertConfig{
		Workload: harness.Workload{
			Engine:           "tl2",
			Objects:          4,
			Goroutines:       6,
			TxnsPerGoroutine: 3,
			OpsPerTxn:        5,
			ReadFraction:     0.5,
			Seed:             21,
		},
		Episodes:    30,
		Interleaved: true,
	}
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	job := checkfarm.JobSpec{Kind: checkfarm.KindCertify, Certify: &checkfarm.CertifyJob{Config: cfg, Criteria: criteria}}
	for _, jobs := range []int{1, 2, 4} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := job.Run(context.Background(), jobs)
				if err != nil {
					b.Fatal(err)
				}
				if stats := rep.Certify; stats.Episodes+stats.Skipped != cfg.Episodes {
					b.Fatalf("lost episodes: %d+%d != %d", stats.Episodes, stats.Skipped, cfg.Episodes)
				}
			}
		})
	}
}

// BenchmarkCheckfarmCheckBatch measures a batch check job (ducheck's
// batch mode under -jobs) across worker counts; each shard parses its history
// from histio text, as ducheck's and certd's check jobs do.
func BenchmarkCheckfarmCheckBatch(b *testing.B) {
	texts := make([]string, 24)
	for i := range texts {
		texts[i] = histio.FormatString(gen.DUOpaque(gen.Config{Txns: 8, Objects: 3, OpsPerTxn: 3, Relax: 5, Seed: int64(40 + i)}))
	}
	job := checkfarm.JobSpec{Kind: checkfarm.KindCheck, Check: &checkfarm.CheckJob{
		Histories: texts, Criteria: []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity},
	}}
	for _, jobs := range []int{1, 4} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := job.Run(context.Background(), jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShrinkViolation measures greedy counterexample minimization on
// planted deferred-update violations.
func BenchmarkShrinkViolation(b *testing.B) {
	var seeds []*history.History
	for s := int64(1); len(seeds) < 4 && s < 64; s++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 10, Objects: 3, OpsPerTxn: 3, UniqueWrites: true, Relax: 5, Seed: s,
		})
		m, ok := gen.MutateFutureRead(h, rand.New(rand.NewSource(s)))
		if !ok {
			continue
		}
		if v := spec.CheckDUOpacity(m); !v.OK && !v.Undecided {
			seeds = append(seeds, m)
		}
	}
	if len(seeds) == 0 {
		b.Fatal("no violating seed histories")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := gen.ShrinkViolation(seeds[i%len(seeds)], spec.DUOpacity)
		if m.Len() > seeds[i%len(seeds)].Len() {
			b.Fatal("shrinking grew the history")
		}
	}
}

// BenchmarkHistoryAnalysis measures the core model: event validation and
// per-transaction analysis.
func BenchmarkHistoryAnalysis(b *testing.B) {
	evs := benchHistory(4).Events()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := history.FromEvents(evs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Online monitoring and graph refutation (our extensions) --------------

// BenchmarkMonitorOnline compares streaming verification (witness reuse)
// against naive re-checking from scratch at every response event.
func BenchmarkMonitorOnline(b *testing.B) {
	h := gen.DUOpaque(gen.Config{Txns: 10, Objects: 3, OpsPerTxn: 3, Relax: 4, Seed: 9})
	evs := h.Events()
	b.Run("monitor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := spec.NewMonitor(spec.DUOpacity)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range evs {
				if _, err := m.Append(e); err != nil {
					b.Fatal(err)
				}
			}
			if !m.Verdict().OK {
				b.Fatal("history must be du-opaque")
			}
		}
	})
	b.Run("recheck-each-response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p := 1; p <= len(evs); p++ {
				if evs[p-1].Kind != history.Res {
					continue
				}
				if !spec.CheckDUOpacity(h.Prefix(p)).OK {
					b.Fatal("prefix must be du-opaque")
				}
			}
		}
	})
}

// BenchmarkStreamIngest measures the streaming ingestion core: appending
// one event (validation + per-transaction view + incremental index)
// against rebuilding the whole analysis with FromEvents at every event,
// the pattern the pre-stream monitor paid. The stream's per-event cost is
// O(1) amortized; the rebuild's grows linearly with the prefix.
func BenchmarkStreamIngest(b *testing.B) {
	evs := gen.DUOpaque(gen.Config{Txns: 10, Objects: 3, OpsPerTxn: 3, Relax: 4, Seed: 9}).Events()
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := history.NewStream()
			for _, e := range evs {
				if err := s.Append(e); err != nil {
					b.Fatal(err)
				}
			}
			if s.Live().Index().NumTxns() == 0 {
				b.Fatal("empty index")
			}
		}
	})
	b.Run("fromevents-per-event", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p := 1; p <= len(evs); p++ {
				if _, err := history.FromEvents(evs[:p]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestMonitorBeatsNaiveRecheckSmoke is the CI gate for the streaming
// monitor redesign: at the BenchmarkMonitorOnline stream length, the
// monitor must beat re-running the batch checker from scratch at every
// response event. Before the stream core the monitor lost this race
// (EXPERIMENTS.md, PR 2); the incremental witness path wins it by ~5x,
// so the comparison has a wide margin against machine noise.
func TestMonitorBeatsNaiveRecheckSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	h := gen.DUOpaque(gen.Config{Txns: 10, Objects: 3, OpsPerTxn: 3, Relax: 4, Seed: 9})
	evs := h.Events()
	monitor := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := spec.NewMonitor(spec.DUOpacity)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range evs {
				if _, err := m.Append(e); err != nil {
					b.Fatal(err)
				}
			}
			if !m.Verdict().OK {
				b.Fatal("history must be du-opaque")
			}
		}
	})
	recheck := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for p := 1; p <= len(evs); p++ {
				if evs[p-1].Kind != history.Res {
					continue
				}
				if !spec.CheckDUOpacity(h.Prefix(p)).OK {
					b.Fatal("prefix must be du-opaque")
				}
			}
		}
	})
	t.Logf("monitor %v/stream, recheck-each-response %v/stream", monitor.NsPerOp(), recheck.NsPerOp())
	// The real gap is ~6x; requiring only 2x keeps the gate meaningful
	// while tolerating noisy shared CI runners.
	if 2*monitor.NsPerOp() >= recheck.NsPerOp() {
		t.Fatalf("monitor (%d ns/stream) does not beat naive rechecking (%d ns/stream) with a 2x margin",
			monitor.NsPerOp(), recheck.NsPerOp())
	}
}

// longSeqStream builds n sequential committed read-write transactions
// round-robin over objs objects — the canonical long monitored stream
// (du-opaque by construction, every transaction t-completes).
func longSeqStream(n, objs int) []history.Event {
	evs := make([]history.Event, 0, 6*n)
	last := make([]history.Value, objs)
	for k := 1; k <= n; k++ {
		oi := k % objs
		obj := history.Var(fmt.Sprintf("X%d", oi))
		evs = append(evs,
			history.Event{Kind: history.Inv, Op: history.OpRead, Txn: history.TxnID(k), Obj: obj},
			history.Event{Kind: history.Res, Op: history.OpRead, Txn: history.TxnID(k), Obj: obj, Val: last[oi], Out: history.OutOK},
			history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: history.TxnID(k), Obj: obj, Arg: history.Value(k)},
			history.Event{Kind: history.Res, Op: history.OpWrite, Txn: history.TxnID(k), Obj: obj, Arg: history.Value(k), Out: history.OutOK},
			history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: history.TxnID(k)},
			history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: history.TxnID(k), Out: history.OutCommit},
		)
		last[oi] = history.Value(k)
	}
	return evs
}

// BenchmarkMonitorLongStream is the gate for the lifted 64-transaction
// ceiling and windowed retirement: a monitor with retirement consumes a
// long stream at flat cost per event — ns/event must not grow between
// txns=1000 and txns=10000 — with every response decided OK, where the
// old monitor went permanently undecided at transaction 65. The reported
// ns/event metric makes the flatness visible across the sub-benchmarks.
// The tms2/ and rco/ variants run the same stream under the
// conflict-order monitors: their incremental edge maintenance must ride
// the same flat curve (TestMonitorLongStreamSmoke gates all three).
func BenchmarkMonitorLongStream(b *testing.B) {
	for _, cr := range []struct {
		prefix string
		c      spec.Criterion
	}{
		{"", spec.DUOpacity},
		{"tms2/", spec.TMS2},
		{"rco/", spec.RCO},
	} {
		for _, n := range []int{1000, 10_000} {
			evs := longSeqStream(n, 4)
			b.Run(fmt.Sprintf("%stxns=%d", cr.prefix, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := spec.NewMonitor(cr.c, spec.WithRetirement(32))
					if err != nil {
						b.Fatal(err)
					}
					for _, e := range evs {
						if _, err := m.Append(e); err != nil {
							b.Fatal(err)
						}
					}
					if v := m.Verdict(); !v.OK || v.Undecided {
						b.Fatalf("stream must stay decided OK: %+v", v)
					}
					if m.Retired() == 0 {
						b.Fatal("retirement never fired")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(evs)), "ns/event")
			})
		}
	}
}

// longStreamClock turns on TestMonitorLongStreamSmoke's wall-clock gate.
// CI runs that test alone with it set (go test -run
// TestMonitorLongStreamSmoke . -args -longstream.clock): next to other
// packages on the same cores a 3 ms quarter is at a scheduler's mercy.
var longStreamClock = flag.Bool("longstream.clock", false, "TestMonitorLongStreamSmoke: also hold quarter 4's wall clock to 3x quarter 2's")

// TestMonitorLongStreamSmoke is the CI gate behind BenchmarkMonitorLongStream:
// a 10k-transaction stream is decided OK at every response and the live
// index stays bounded by the retirement window, for the du, TMS2 and RCO
// monitors. That the per-event work is flat is counted, exactly, by
// internal/spec's TestMonitorLongStreamWorkFlat, which runs the same
// stream. With -longstream.clock the per-event time is gated too: the
// last quarter of the stream may not take more than 3x the second (the
// first quarter is excluded as warm-up; the pre-retirement monitor's last
// quarter took >100x its second).
func TestMonitorLongStreamSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long stream skipped in -short mode")
	}
	const (
		n      = 10_000
		window = 32
	)
	evs := longSeqStream(n, 4)
	for _, c := range []spec.Criterion{spec.DUOpacity, spec.TMS2, spec.RCO} {
		t.Run(c.String(), func(t *testing.T) {
			m, err := spec.NewMonitor(c, spec.WithRetirement(window))
			if err != nil {
				t.Fatal(err)
			}
			quarter := len(evs) / 4
			var qdur [4]time.Duration
			for q := 0; q < 4; q++ {
				chunk := evs[q*quarter : (q+1)*quarter]
				start := time.Now()
				for i, e := range chunk {
					v, err := m.Append(e)
					if err != nil {
						t.Fatalf("quarter %d event %d: %v", q, i, err)
					}
					if !v.OK || v.Undecided {
						t.Fatalf("quarter %d event %d: verdict %+v, want decided OK", q, i, v)
					}
				}
				qdur[q] = time.Since(start)
				if live := m.LiveTxns(); live > 2*window+1 {
					t.Fatalf("quarter %d: %d live transactions, want <= %d", q, live, 2*window+1)
				}
			}
			t.Logf("quarter durations: %v (live=%d retired=%d)", qdur, m.LiveTxns(), m.Retired())
			if m.Retired() < n-2*window-1 {
				t.Fatalf("Retired = %d, want nearly all of %d", m.Retired(), n)
			}
			if *longStreamClock && qdur[3] > 3*qdur[1] {
				t.Fatalf("per-event cost is not flat: quarter 4 took %v, quarter 2 took %v", qdur[3], qdur[1])
			}
		})
	}
}

// BenchmarkMonitorOnlineCertify measures online certification: the full
// interleaved episode with the monitor fed the recorded log event by
// event, against recording the episode and batch-checking it afterwards.
// Online certification checks at every response event where the batch
// pipeline checks once, so it costs more per clean episode; what it buys
// is the exact event that caused a violation — and the gap (~1.7x,
// EXPERIMENTS.md) is the price of that capability, down from the
// O(events) multiple the pre-stream monitor would have paid.
func BenchmarkMonitorOnlineCertify(b *testing.B) {
	w := harness.Workload{
		Engine: "tl2", Objects: 4, Goroutines: 4,
		TxnsPerGoroutine: 2, OpsPerTxn: 3, Seed: 7,
	}
	b.Run("online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := harness.RunMonitored(w, spec.DUOpacity, 2_000_000, true)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Verdict.OK {
				b.Fatal("tl2 episode must certify")
			}
		}
	})
	b.Run("record-then-check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, _, err := harness.RunInterleaved(w)
			if err != nil {
				b.Fatal(err)
			}
			if !spec.CheckDUOpacity(h, spec.WithNodeLimit(2_000_000)).OK {
				b.Fatal("tl2 episode must certify")
			}
		}
	})
}

// --- Schedule exploration: per-plan proofs ---------------------------------

// BenchmarkCheckfarmExplore measures the sharded exploration of a batch
// of seeded plans — the farm's proof mode (an explore job).
func BenchmarkCheckfarmExplore(b *testing.B) {
	var plans []checkfarm.WirePlan
	for i := 0; i < 8; i++ {
		plans = append(plans, checkfarm.WirePlanOf(harness.PlanOf(harness.Workload{
			Engine: "tl2", Objects: 2, Goroutines: 2,
			TxnsPerGoroutine: 1, OpsPerTxn: 3, ReadFraction: 0.5, Seed: int64(i + 1),
		})))
	}
	job := checkfarm.JobSpec{Kind: checkfarm.KindExplore, Explore: &checkfarm.ExploreJob{Engine: "tl2", Plans: plans}}
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := job.Run(context.Background(), jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
