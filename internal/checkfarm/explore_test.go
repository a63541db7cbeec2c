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

// TestCertifyExploreMode: CertConfig.Explore routes the farm's episodes
// through exhaustive exploration — the deferred-update engine's episodes
// are proven (accepted), the in-place engine's refuted (rejected), and
// the sharded statistics equal the sequential ones.
func TestCertifyExploreMode(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}
	base := harness.CertConfig{
		Workload: harness.Workload{
			Objects:          2,
			Goroutines:       2,
			TxnsPerGoroutine: 1,
			OpsPerTxn:        2,
			ReadFraction:     0.5,
			Seed:             7,
			MaxAttempts:      3,
		},
		Episodes: 6,
		Explore:  true,
	}

	cfg := base
	cfg.Workload.Engine = "tl2"
	seq, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Rejected[spec.DUOpacity] != 0 || seq.Undecided[spec.DUOpacity] != 0 {
		t.Errorf("tl2 explore-certify: %d rejected, %d undecided; want none (reason %q)",
			seq.Rejected[spec.DUOpacity], seq.Undecided[spec.DUOpacity], seq.FirstReason[spec.DUOpacity])
	}
	par := *mustRun(t, context.Background(), certifyJob(cfg, criteria), 4).Certify
	if par.Accepted[spec.DUOpacity] != seq.Accepted[spec.DUOpacity] ||
		par.Rejected[spec.DUOpacity] != seq.Rejected[spec.DUOpacity] ||
		par.FirstReason[spec.DUOpacity] != seq.FirstReason[spec.DUOpacity] {
		t.Errorf("sharded explore-certify diverged from sequential: %+v vs %+v", par, seq)
	}

	cfg = base
	cfg.Workload.Engine = "ple"
	cfg.Workload.ReadFraction = 0.6 // ensure reads appear alongside writes
	stats, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected[spec.DUOpacity] == 0 {
		t.Error("ple explore-certify found no violating plan")
	}
	if stats.FirstReason[spec.DUOpacity] == "" {
		t.Error("missing pinned schedule in rejection reason")
	}
}

// TestCertifyExploreModeRejectsBadCriterion: non-monitorable criteria
// cannot be proven by exploration and must error loudly.
func TestCertifyExploreModeRejectsBadCriterion(t *testing.T) {
	cfg := harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 1},
		Episodes: 1,
		Explore:  true,
	}
	if _, err := harness.Certify(cfg, []spec.Criterion{spec.TMS2}); err == nil {
		t.Fatal("TMS2 accepted in explore mode")
	}
}
