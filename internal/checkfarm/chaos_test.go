package checkfarm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"duopacity/internal/chaos"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// acceptingHistories returns a few litmus histories known du-opaque, as
// check job fodder.
func acceptingHistories(t *testing.T, n int) []*history.History {
	t.Helper()
	var hs []*history.History
	for _, c := range litmus.Cases() {
		if c.Expect[spec.DUOpacity] {
			hs = append(hs, c.H)
		}
		if len(hs) == n {
			return hs
		}
	}
	if len(hs) == 0 {
		t.Fatal("no accepting litmus cases")
	}
	return hs
}

// TestRunProtectedRetriesThenSucceeds pins the recovery unit itself: a
// compute function that panics below the retry bound is retried to
// success; one that panics on every attempt returns ShardPanicError.
func TestRunProtectedRetriesThenSucceeds(t *testing.T) {
	calls := 0
	err := runProtected(context.Background(), 3, func() error {
		calls++
		if calls < ShardAttempts {
			panic("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recovered unit returned error: %v", err)
	}
	if calls != ShardAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, ShardAttempts)
	}

	calls = 0
	err = runProtected(context.Background(), 7, func() error {
		calls++
		panic("permanent")
	})
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("past-retries panic returned %v, want *ShardPanicError", err)
	}
	if pe.Shard != 7 || pe.Attempt != ShardAttempts-1 {
		t.Fatalf("ShardPanicError = %+v", pe)
	}
	if calls != ShardAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, ShardAttempts)
	}
	if !strings.Contains(pe.Error(), "permanent") {
		t.Fatalf("error %q does not carry the panic value", pe.Error())
	}
}

func TestRunProtectedOrdinaryErrorIsNotRetried(t *testing.T) {
	calls := 0
	want := errors.New("a verdict, not a crash")
	err := runProtected(context.Background(), 0, func() error {
		calls++
		return want
	})
	if err != want || calls != 1 {
		t.Fatalf("err=%v calls=%d; ordinary errors must pass through once", err, calls)
	}
}

// TestCheckBatchRecoversInjectedPanic: a fault schedule whose panics stay
// below the retry bound must leave the results byte-identical to a
// fault-free run.
func TestCheckBatchRecoversInjectedPanic(t *testing.T) {
	s := checkJob(acceptingHistories(t, 4), []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity})
	want := mustRun(t, context.Background(), s, 2)
	ff := &chaos.FarmFaults{PanicEvery: 1, PanicAttempts: ShardAttempts - 1}
	got := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), s, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ after recovered panics:\ngot  %v\nwant %v", got.Check, want.Check)
	}
	if n := len(s.Check.Histories); ff.Panics() != int64(n*(ShardAttempts-1)) {
		t.Fatalf("injected %d panics, want %d", ff.Panics(), n*(ShardAttempts-1))
	}
}

// TestCheckBatchDegradesPastRetries: a shard that panics on every attempt
// degrades into explicit undecided verdicts instead of failing the batch,
// and the other shards are untouched.
func TestCheckBatchDegradesPastRetries(t *testing.T) {
	s := checkJob(acceptingHistories(t, 3), []spec.Criterion{spec.DUOpacity})
	want := mustRun(t, context.Background(), s, 2)
	// Strike only shard 0, forever.
	ff := &chaos.FarmFaults{PanicEvery: len(s.Check.Histories), PanicAttempts: 100}
	got := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), s, 2)
	if got.Degraded != 1 {
		t.Fatalf("report counts %d degraded shards, want 1", got.Degraded)
	}
	v := got.Check[0][0]
	if !v.Undecided {
		t.Fatalf("degraded shard verdict decided: %v", v)
	}
	if !strings.Contains(v.Reason, "degraded:") || !strings.Contains(v.Reason, "panicked") {
		t.Fatalf("degraded reason %q does not report the panic", v.Reason)
	}
	for i := 1; i < len(got.Check); i++ {
		if !reflect.DeepEqual(got.Check[i], want.Check[i]) {
			t.Fatalf("healthy shard %d changed: %v vs %v", i, got.Check[i], want.Check[i])
		}
	}
}

// TestCertifyStreamDegradesPastRetries: episode shards that crash past
// the retry bound fold as degraded episodes — counted, every verdict
// undecided, never accepted.
func TestCertifyStreamDegradesPastRetries(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	cfg := interleavedCfg("tl2", 6)
	ff := &chaos.FarmFaults{PanicEvery: 3, PanicAttempts: 100} // episodes 0 and 3
	rep := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), certifyJob(cfg, criteria), 2)
	stats := rep.Certify
	if rep.Degraded != 2 || stats.Degraded != 2 {
		t.Fatalf("degraded counts: report %d, stats %d (want 2, 2)", rep.Degraded, stats.Degraded)
	}
	for _, c := range criteria {
		if stats.Undecided[c] < 2 || stats.Accepted[c]+stats.Rejected[c]+stats.Undecided[c] != stats.Episodes {
			t.Fatalf("criterion %v: degraded episodes not counted undecided: %+v", c, stats)
		}
	}
}

// TestCertifyStreamRecoversInjectedPanic: below the bound, sharded
// results stay identical to the sequential certification.
func TestCertifyStreamRecoversInjectedPanic(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}
	cfg := interleavedCfg("tl2", 6)
	want, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	ff := &chaos.FarmFaults{PanicEvery: 2, PanicAttempts: ShardAttempts - 1}
	rep := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), certifyJob(cfg, criteria), 2)
	if !reflect.DeepEqual(*rep.Certify, want) {
		t.Fatalf("recovered panics changed certification:\ngot  %#v\nwant %#v", *rep.Certify, want)
	}
}

// TestExplorePlansDegradesPastRetries: a crashed exploration shard
// surfaces as BudgetExhausted with DegradedReason — an honest undecided
// proof obligation, not a dropped plan or a failed batch.
func TestExplorePlansDegradesPastRetries(t *testing.T) {
	plans := []stm.Plan{
		harness.PlanOf(harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 2, Seed: 1}),
		harness.PlanOf(harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 2, Seed: 2}),
	}
	ff := &chaos.FarmFaults{PanicEvery: 2, PanicAttempts: 100} // plan 0 only
	rep := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), exploreJob("tl2", plans, harness.ExploreConfig{}), 2)
	r0 := rep.Explore[0]
	if r0.Outcome != harness.BudgetExhausted || r0.DegradedReason == "" {
		t.Fatalf("crashed shard report: outcome=%v degraded=%q, want budget-exhausted with a reason", r0.Outcome, r0.DegradedReason)
	}
	if r0.Engine != "tl2" || len(r0.Plan.Threads) == 0 {
		t.Fatalf("degraded report lost its identity: %+v", r0)
	}
	if rep.Explore[1].Outcome != harness.ProvenDUOpaque {
		t.Fatalf("healthy plan outcome = %v, want proven", rep.Explore[1].Outcome)
	}
}

// TestCertifyCancelledContext: an already-cancelled context stops a job
// of every kind before any shard runs, with the context's error.
func TestCertifyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range everyKind(t) {
		if _, err := s.Run(ctx, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled farm returned %v, want context.Canceled", s.Kind, err)
		}
	}
}

// everyKind returns one small deterministic job per kind.
func everyKind(t *testing.T) []JobSpec {
	return []JobSpec{
		certifyJob(interleavedCfg("tl2", 4), []spec.Criterion{spec.DUOpacity}),
		exploreJob("tl2", explorePlans(), harness.ExploreConfig{}),
		checkJob(acceptingHistories(t, 3), []spec.Criterion{spec.DUOpacity, spec.Opacity}),
		// gl serializes its goroutines, so even the concurrent cells of the
		// soak accept: the report does not depend on the interleaving.
		soakJob(SoakConfig{Engines: []string{"gl"}, Criteria: []spec.Criterion{spec.DUOpacity}, Rounds: 2, Seed: 5}),
	}
}

// TestRunDegradesEveryKind: Run contains a shard that panics on every
// attempt the same way for all four kinds — the report counts one
// degraded shard and renders exactly the fold of the fault-free shards
// with DegradedShard in the struck slot, as certd renders a shard lost
// to its workers.
func TestRunDegradesEveryKind(t *testing.T) {
	for _, s := range everyKind(t) {
		s := mustNormalize(t, s)
		t.Run(string(s.Kind), func(t *testing.T) {
			n := s.NumShards()
			ff := &chaos.FarmFaults{PanicEvery: n, PanicAttempts: ShardAttempts} // shard 0, every attempt
			rep := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), s, 2)
			if rep.Degraded != 1 {
				t.Fatalf("report counts %d degraded shards, want 1", rep.Degraded)
			}
			reason := (&ShardPanicError{
				Shard: 0, Attempt: ShardAttempts - 1,
				Value: fmt.Sprintf("chaos: injected worker panic (shard 0, attempt %d)", ShardAttempts-1),
			}).Error()
			results := make([]*ShardResult, n)
			for i := range results {
				r := s.DegradedShard(i, reason)
				if i > 0 {
					var err error
					if r, err = s.RunShard(context.Background(), i); err != nil {
						t.Fatal(err)
					}
				}
				results[i] = &r
			}
			want, err := FoldJob(context.Background(), s, results, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := FormatJobReport(s, rep), FormatJobReport(s, want); got != want {
				t.Fatalf("degraded run renders\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// faultedSoak is the end-to-end faulted soak: tl2, norec and dstm under
// du-opacity, every concurrent cell faulted, under the worker-fault
// schedule stmbench soak -faults runs.
func faultedSoak(rounds int) SoakConfig {
	return SoakConfig{
		Engines:  []string{"tl2", "norec", "dstm"},
		Criteria: []spec.Criterion{spec.DUOpacity},
		Rounds:   rounds,
		Seed:     20260808,
		Faults:   true,
	}
}

// TestChaosSoakEndToEnd is the fault mode's acceptance gate: at least 510
// faulted cells certified across the three kill-safe deferred-update
// engines, at most a tenth of the faulted cells skipped past the
// transaction cap, every fault stage exercised — kills, junk, truncation,
// shards degraded past their retries — with exact junk accounting and
// zero soundness flips. CI runs it under -race and -short, whose 34 cells
// are too few to hold a tenth (four skips in ten -race runs), so there
// the skip bound is a quarter.
func TestChaosSoakEndToEnd(t *testing.T) {
	rounds, certified, skipShare := 250, 510, 10
	if testing.Short() {
		rounds, certified, skipShare = 12, 20, 4
	}
	ctx := chaos.WithFarmFaults(context.Background(), SoakFarmFaults())
	res := mustRun(t, ctx, soakJob(faultedSoak(rounds)), 0).Soak
	f := res.Faults
	t.Logf("%d rounds: %+v, %d degraded", rounds, f, res.Degraded)
	for _, fl := range res.Flips {
		t.Errorf("soundness flip: %s round %d: %s", fl.Engine, fl.Round, fl.Reason)
	}
	if got := f.Cells - f.Skipped; got < certified {
		t.Errorf("%d faulted cells certified, want at least %d", got, certified)
	}
	if f.Skipped*skipShare > f.Cells {
		t.Errorf("%d of %d faulted cells skipped, want at most 1/%d", f.Skipped, f.Cells, skipShare)
	}
	if f.Kills == 0 {
		t.Error("no transaction was killed")
	}
	if f.JunkInjected == 0 || f.JunkInjected != f.JunkRejected {
		t.Errorf("junk contract broken: injected=%d rejected=%d", f.JunkInjected, f.JunkRejected)
	}
	if f.Truncated == 0 {
		t.Error("no replay was truncated")
	}
	if res.Degraded == 0 {
		t.Error("no shard degraded")
	}
}

// TestChaosSoakWithoutFarmFaults runs only the engine and stream stages:
// with no farm faults on the context every faulted cell is certified, the
// engine and stream faults are still exercised with exact junk accounting,
// and no shard degrades.
func TestChaosSoakWithoutFarmFaults(t *testing.T) {
	res := mustRun(t, context.Background(), soakJob(faultedSoak(14)), 0).Soak
	f := res.Faults
	t.Logf("%+v", f)
	for _, fl := range res.Flips {
		t.Errorf("soundness flip: %s round %d: %s", fl.Engine, fl.Round, fl.Reason)
	}
	if f.Cells == 0 || f.Kills == 0 || f.Truncated == 0 {
		t.Errorf("engine or stream faults not exercised: %+v", f)
	}
	if f.JunkInjected == 0 || f.JunkInjected != f.JunkRejected {
		t.Errorf("junk contract broken: injected=%d rejected=%d", f.JunkInjected, f.JunkRejected)
	}
	if res.Degraded != 0 {
		t.Errorf("no farm faults were set but %d shards degraded", res.Degraded)
	}
}

// TestChaosSoakNonKillSafeEngine: gl holds its lock from Begin and ple
// locks at encounter, so a kill there would block the run. Their faulted
// cells keep spurious aborts and delayed commits but kill nothing, and
// ple's du-opacity violations are no flips: ple is not deferred-update.
func TestChaosSoakNonKillSafeEngine(t *testing.T) {
	cfg := SoakConfig{Engines: []string{"gl", "ple"}, Criteria: []spec.Criterion{spec.DUOpacity}, Rounds: 10, Seed: 3, Faults: true}
	res := mustRun(t, context.Background(), soakJob(cfg), 0).Soak
	if res.Faults.Kills != 0 {
		t.Errorf("%d kills on engines that are not kill-safe", res.Faults.Kills)
	}
	if res.Faults.Cells != 20 {
		t.Errorf("%d faulted cells, want 20", res.Faults.Cells)
	}
	for _, fl := range res.Flips {
		t.Errorf("soundness flip: %s round %d: %s", fl.Engine, fl.Round, fl.Reason)
	}
}

// TestChaosSoakFlipDetection: both ledger rules see a flip and shrink it.
// A tl2 cell whose history violates du-opacity is a deferred-update
// engine breaking Theorem 11; a batch check that disagrees with the
// monitor breaks the stream stage.
func TestChaosSoakFlipDetection(t *testing.T) {
	t.Run("deferred-update", func(t *testing.T) {
		cfg := SoakConfig{Engines: []string{"tl2"}, Rounds: 1, Faults: true}.withDefaults()
		// Two committed writers after the violation, which shrinking drops.
		h, err := histio.ParseString(litmusViolation(t) + "write 90 X9 90\ncommit 90\nwrite 91 X9 91\ncommit 91\n")
		if err != nil {
			t.Fatal(err)
		}
		episodes := make([]harness.EpisodeReport, len(soakTasks(cfg)))
		for i := range episodes {
			episodes[i] = harness.EpisodeReport{History: h, Verdicts: spec.CheckAll(h, cfg.Criteria)}
		}
		res, err := foldSoak(context.Background(), cfg, episodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flips) != 2 {
			t.Fatalf("%d flips, want one per cell: %+v", len(res.Flips), res.Flips)
		}
		for _, fl := range res.Flips {
			if !strings.Contains(fl.Reason, "deferred-update") || fl.Minimal == nil {
				t.Fatalf("flip %q carries no shrunk history", fl.Reason)
			}
			if fl.Minimal.Len() >= h.Len() {
				t.Errorf("flip not shrunk: %d -> %d events", h.Len(), fl.Minimal.Len())
			}
			if v := spec.Check(fl.Minimal, spec.DUOpacity); v.OK || v.Undecided {
				t.Errorf("shrunk flip no longer violates du-opacity: %s", v)
			}
		}
		if report := FormatSoakReport(cfg, res); !strings.Contains(report, "FLIP: tl2 round 0, concurrent:") {
			t.Errorf("report prints no FLIP line:\n%s", report)
		}
	})
	t.Run("stream", func(t *testing.T) {
		h, err := histio.ParseString("write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\nwrite 3 Y 3\ncommit 3\n")
		if err != nil {
			t.Fatal(err)
		}
		inverted := func(g *history.History, c spec.Criterion, opts ...spec.Option) spec.Verdict {
			v := spec.Check(g, c, opts...)
			v.OK = !v.OK
			return v
		}
		flips, err := replayStream(h, 1, 0, true, inverted, &FaultTally{})
		if err != nil {
			t.Fatal(err)
		}
		var shrunk *history.History
		for _, fl := range flips {
			if strings.Contains(fl.Reason, "batch check") {
				shrunk = fl.Minimal
			}
		}
		if shrunk == nil || shrunk.Len() >= h.Len() {
			t.Fatalf("comparator mutation not caught and shrunk: %+v", flips)
		}
		if flips, err := replayStream(h, 1, 0, true, spec.Check, &FaultTally{}); err != nil || len(flips) != 0 {
			t.Fatalf("sound comparator flagged: %+v, %v", flips, err)
		}
	})
	t.Run("prefix-closure", func(t *testing.T) {
		// A cell that claims du-opacity accepted a violating history: its
		// whole replay latches a violation, which prefix closure forbids.
		bad, err := histio.ParseString(litmusViolation(t))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); ; seed++ {
			var tally FaultTally
			flips, err := replayStream(bad, seed, 0, true, spec.Check, &tally)
			if err != nil {
				t.Fatal(err)
			}
			if tally.Truncated > 0 {
				continue
			}
			if len(flips) != 1 || !strings.Contains(flips[0].Reason, "prefix of an accepted history") {
				t.Fatalf("seed %d: want one prefix-closure flip, got %+v", seed, flips)
			}
			return
		}
	})
}

// litmusViolation returns the text of a litmus history du-opacity rejects.
func litmusViolation(t *testing.T) string {
	t.Helper()
	for _, c := range litmus.Cases() {
		if ok, known := c.Expect[spec.DUOpacity]; known && !ok {
			return histio.FormatString(c.H)
		}
	}
	t.Fatal("no du-violating litmus case")
	return ""
}

// TestChaosSoakFarmDegradationContract: worker faults cost cells, never
// change them. On the deterministic probe cells, panics below the retry
// bound leave the report as the fault-free run's, and panics past it
// degrade the struck cells into undecided verdicts.
func TestChaosSoakFarmDegradationContract(t *testing.T) {
	cfg := SoakConfig{Engines: []string{"tl2", "ple"}, Criteria: []spec.Criterion{spec.DUOpacity, spec.Opacity}, Rounds: 3, Seed: 5, Faults: true}
	clean := mustRun(t, context.Background(), soakJob(cfg), 2).Soak
	probes := func(res *SoakResult, struck func(i int) bool) {
		t.Helper()
		for i, cell := range res.Cells {
			if !cell.Probe {
				continue
			}
			if struck(i) {
				if cell.Degraded == "" {
					t.Errorf("cell %d: struck past its retries but not degraded", i)
				}
				for _, v := range cell.Verdicts {
					if !v.Undecided {
						t.Errorf("cell %d: degraded but decided: %s", i, v)
					}
				}
				continue
			}
			want := clean.Cells[i]
			if cell.Degraded != "" || !reflect.DeepEqual(cell.Verdicts, want.Verdicts) || cell.History.String() != want.History.String() {
				t.Errorf("cell %d: changed by the worker faults", i)
			}
		}
	}
	recovered := &chaos.FarmFaults{PanicEvery: 3, PanicAttempts: ShardAttempts - 1}
	res := mustRun(t, chaos.WithFarmFaults(context.Background(), recovered), soakJob(cfg), 2).Soak
	probes(res, func(int) bool { return false })
	if res.Degraded != 0 || recovered.Panics() == 0 {
		t.Errorf("recovered panics: %d injected, %d cells degraded", recovered.Panics(), res.Degraded)
	}
	past := &chaos.FarmFaults{PanicEvery: 3, PanicAttempts: ShardAttempts}
	res = mustRun(t, chaos.WithFarmFaults(context.Background(), past), soakJob(cfg), 2).Soak
	probes(res, func(i int) bool { return i%3 == 0 })
	if want := (len(res.Cells) + 2) / 3; res.Degraded != want {
		t.Errorf("%d cells degraded, want %d", res.Degraded, want)
	}
}

// TestChaosSoakUnknownEngine: a faulted soak refuses an engine it does not
// know, and a criteria list without du-opacity, the criterion its ledger
// holds the engines to.
func TestChaosSoakUnknownEngine(t *testing.T) {
	for _, cfg := range []SoakConfig{
		{Engines: []string{"bogus"}, Rounds: 1, Faults: true},
		{Engines: []string{"tl2"}, Criteria: []spec.Criterion{spec.Opacity}, Rounds: 1, Faults: true},
	} {
		if _, err := soakJob(cfg).Run(context.Background(), 1); err == nil {
			t.Errorf("%+v: faulted soak ran", cfg)
		}
	}
}
