package checkfarm

import (
	"context"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

func explorePlans() []stm.Plan {
	return []stm.Plan{
		stm.MustParsePlan("w0\nr0 r0"),
		stm.MustParsePlan("r0 w0\nr0 w0"),
		stm.MustParsePlan("w0 r1\nr0 w1"),
		stm.MustParsePlan("w0 | r0\nr0"),
	}
}

// TestExplorePlansMatchesSequential: an explore job must return exactly
// the reports a sequential loop of harness.ExplorePlanCtx produces, in
// input order, rendered by FormatExploreTable.
func TestExplorePlansMatchesSequential(t *testing.T) {
	plans := explorePlans()
	for _, eng := range []string{"tl2", "ple"} {
		var want []harness.ExploreReport
		for _, p := range plans {
			r, err := harness.ExplorePlanCtx(context.Background(), eng, p, harness.ExploreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		s := mustNormalize(t, exploreJob(eng, plans, harness.ExploreConfig{}))
		for _, jobs := range []int{1, 4} {
			rep := mustRun(t, context.Background(), s, jobs)
			if got, want := FormatJobReport(s, rep), harness.FormatExploreTable(want); got != want {
				t.Errorf("%s jobs=%d: explore table diverged:\n%s\nvs\n%s", eng, jobs, got, want)
			}
			for i, got := range rep.Explore {
				gv, wv := got.Violation, want[i].Violation
				if (gv == nil) != (wv == nil) {
					t.Fatalf("%s jobs=%d plan %d: violation presence diverged", eng, jobs, i)
				}
				if gv != nil && histio.FormatString(gv.History) != histio.FormatString(wv.History) {
					t.Errorf("%s jobs=%d plan %d: pinned violations diverged", eng, jobs, i)
				}
			}
		}
	}
}

// TestExplorePlansError: an invalid engine fails the whole batch.
func TestExplorePlansError(t *testing.T) {
	if _, err := exploreJob("bogus", explorePlans(), harness.ExploreConfig{}).Run(context.Background(), 2); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestExploreWorkloadPlans: an explore job over the harness.PlanOf plans
// of a workload's episodes proves a deferred-update engine's episodes and
// refutes the in-place engine's with a pinned schedule.
func TestExploreWorkloadPlans(t *testing.T) {
	plansOf := func(readFraction float64) []stm.Plan {
		w := harness.Workload{
			Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 2,
			ReadFraction: readFraction, Seed: 7,
		}
		var ps []stm.Plan
		for ep := 0; ep < 6; ep++ {
			we := w
			we.Seed += int64(ep) * 104729 // the certify episode seed stride
			ps = append(ps, harness.PlanOf(we))
		}
		return ps
	}
	cfg := harness.ExploreConfig{MaxAttempts: 3, StopAtFirstViolation: true}

	s := mustNormalize(t, exploreJob("tl2", plansOf(0.5), cfg))
	for i, r := range mustRun(t, context.Background(), s, 4).Explore {
		if r.Outcome != harness.ProvenDUOpaque {
			t.Errorf("tl2 plan %d: outcome %s, want proven", i, r.Outcome)
		}
	}

	s = mustNormalize(t, exploreJob("ple", plansOf(0.6), cfg))
	refuted := 0
	for i, r := range mustRun(t, context.Background(), s, 4).Explore {
		if r.Outcome != harness.ViolationFound {
			continue
		}
		refuted++
		if r.Violation == nil || len(r.Violation.Schedule) == 0 {
			t.Errorf("ple plan %d: violation without a pinned schedule", i)
		}
	}
	if refuted == 0 {
		t.Error("ple explore found no violating plan")
	}
}

// TestCertifyExploreModeRejectsBadCriterion: non-monitorable criteria
// cannot be proven by exploration, so an explore job over a workload's
// plans that asks for one fails at submit, not on every worker.
func TestCertifyExploreModeRejectsBadCriterion(t *testing.T) {
	w := harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 1}
	s := exploreJob(w.Engine, []stm.Plan{harness.PlanOf(w)}, harness.ExploreConfig{Criterion: spec.TMS2})
	if _, err := s.Normalize(); err == nil {
		t.Fatal("TMS2 accepted for an explore job")
	}
	if _, err := s.RunShard(context.Background(), 0); err == nil {
		t.Fatal("TMS2 explored by a worker")
	}
}
