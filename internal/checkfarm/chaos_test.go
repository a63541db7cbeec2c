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
		if calls < shardAttempts {
			panic("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recovered unit returned error: %v", err)
	}
	if calls != shardAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, shardAttempts)
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
	if pe.Shard != 7 || pe.Attempt != shardAttempts-1 {
		t.Fatalf("ShardPanicError = %+v", pe)
	}
	if calls != shardAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, shardAttempts)
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
	ff := &chaos.FarmFaults{PanicEvery: 1, PanicAttempts: shardAttempts - 1}
	got := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), s, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ after recovered panics:\ngot  %v\nwant %v", got.Check, want.Check)
	}
	if n := len(s.Check.Histories); ff.Panics() != int64(n*(shardAttempts-1)) {
		t.Fatalf("injected %d panics, want %d", ff.Panics(), n*(shardAttempts-1))
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
	ff := &chaos.FarmFaults{PanicEvery: 2, PanicAttempts: shardAttempts - 1}
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
			ff := &chaos.FarmFaults{PanicEvery: n, PanicAttempts: shardAttempts} // shard 0, every attempt
			rep := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), s, 2)
			if rep.Degraded != 1 {
				t.Fatalf("report counts %d degraded shards, want 1", rep.Degraded)
			}
			reason := (&ShardPanicError{
				Shard: 0, Attempt: shardAttempts - 1,
				Value: fmt.Sprintf("chaos: injected worker panic (shard 0, attempt %d)", shardAttempts-1),
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

// farmStage wires the soak's farm hook through a one-history check job,
// as cmd/stmbench does.
func farmStage(ctx context.Context, h *history.History, c spec.Criterion, nodeLimit int) (spec.Verdict, string, error) {
	s := checkJob([]*history.History{h}, []spec.Criterion{c})
	s.Check.NodeLimit = nodeLimit
	rep, err := s.Run(ctx, 1)
	if err != nil {
		return spec.Verdict{}, "", err
	}
	v := rep.Check[0][0].Verdict()
	if reason, ok := strings.CutPrefix(v.Reason, "degraded: "); ok {
		return v, reason, nil
	}
	return v, "", nil
}

// TestChaosSoakEndToEnd is the PR's acceptance gate: ≥500 randomized
// fault schedules across the three kill-safe engines, each trial running
// engine, stream and farm faults through the full pipeline, with zero
// soundness flips and exact junk accounting. CI runs this under -race.
func TestChaosSoakEndToEnd(t *testing.T) {
	trials := 170 // 3 engines × 170 = 510 schedules
	if testing.Short() {
		trials = 12
	}
	rep, err := harness.ChaosSoak(harness.ChaosConfig{
		Engines: []string{"tl2", "norec", "dstm"},
		Trials:  trials,
		Seed:    20260808,
		Farm:    farmStage,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	for _, f := range rep.Flips {
		t.Errorf("soundness flip: %s", f)
	}
	if rep.Trials != 3*trials {
		t.Fatalf("ran %d trials, want %d", rep.Trials, 3*trials)
	}
	if rep.SpuriousAborts == 0 || rep.CommitDelays == 0 || rep.Kills == 0 {
		t.Errorf("engine faults not exercised: %s", rep.String())
	}
	if rep.JunkInjected == 0 || rep.JunkInjected != rep.JunkRejected {
		t.Errorf("junk contract broken: injected=%d rejected=%d", rep.JunkInjected, rep.JunkRejected)
	}
	if rep.Truncated == 0 {
		t.Errorf("truncation faults not exercised")
	}
	if rep.FarmDegraded == 0 {
		t.Errorf("farm degradation not exercised")
	}
}
