package checkfarm

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"duopacity/internal/chaos"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

func interleavedCfg(engine string, episodes int) harness.CertConfig {
	return harness.CertConfig{
		Workload: harness.Workload{
			Engine:           engine,
			Objects:          4,
			Goroutines:       4,
			TxnsPerGoroutine: 3,
			OpsPerTxn:        4,
			ReadFraction:     0.5,
			Seed:             7,
		},
		Episodes:    episodes,
		Interleaved: true,
	}
}

func certifyJob(cfg harness.CertConfig, criteria []spec.Criterion) JobSpec {
	return JobSpec{Kind: KindCertify, Certify: &CertifyJob{Config: cfg, Criteria: criteria}}
}

func exploreJob(engine string, plans []stm.Plan, cfg harness.ExploreConfig) JobSpec {
	wire := make([]WirePlan, len(plans))
	for i, p := range plans {
		wire[i] = WirePlanOf(p)
	}
	return JobSpec{Kind: KindExplore, Explore: &ExploreJob{Engine: engine, Plans: wire, Config: cfg}}
}

func checkJob(hs []*history.History, criteria []spec.Criterion) JobSpec {
	texts := make([]string, len(hs))
	for i, h := range hs {
		texts[i] = histio.FormatString(h)
	}
	return JobSpec{Kind: KindCheck, Check: &CheckJob{Histories: texts, Criteria: criteria}}
}

func soakJob(cfg SoakConfig) JobSpec {
	return JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: cfg}}
}

// mustRun runs s in process and fails the test on error.
func mustRun(t *testing.T, ctx context.Context, s JobSpec, jobs int) *JobReport {
	t.Helper()
	rep, err := s.Run(ctx, jobs)
	if err != nil {
		t.Fatalf("%s job, jobs=%d: %v", s.Kind, jobs, err)
	}
	return rep
}

// TestCertifyMatchesSequential is the pipeline's core guarantee: sharded
// certification aggregates to the statistics of the sequential
// harness.Certify, and renders the same table, at every worker count, for
// deterministic episodes.
func TestCertifyMatchesSequential(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity, spec.StrictSerializability}
	for _, engine := range []string{"tl2", "ple", "gl"} {
		cfg := interleavedCfg(engine, 12)
		want, err := harness.Certify(cfg, criteria)
		if err != nil {
			t.Fatalf("%s: sequential: %v", engine, err)
		}
		s := mustNormalize(t, certifyJob(cfg, criteria))
		for _, jobs := range []int{1, 2, 4, 0} {
			rep := mustRun(t, context.Background(), s, jobs)
			if !reflect.DeepEqual(*rep.Certify, want) {
				t.Errorf("%s/jobs=%d: farm stats differ:\ngot  %#v\nwant %#v", engine, jobs, *rep.Certify, want)
			}
			if got, want := FormatJobReport(s, rep), harness.FormatCertTable(want, criteria); got != want {
				t.Errorf("%s/jobs=%d: rendered tables differ:\n%s\nvs\n%s", engine, jobs, got, want)
			}
		}
	}
}

func TestCertifyUnknownEngine(t *testing.T) {
	cfg := harness.CertConfig{Workload: harness.Workload{Engine: "bogus"}, Episodes: 4}
	if _, err := certifyJob(cfg, []spec.Criterion{spec.DUOpacity}).Run(context.Background(), 2); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestCertifyCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := certifyJob(interleavedCfg("tl2", 8), []spec.Criterion{spec.DUOpacity}).Run(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckBatchOrderAndVerdicts: a check job over the litmus histories
// returns one row per history, in input order, each verdict rendering
// exactly as a sequential spec.Check of the same history does.
func TestCheckBatchOrderAndVerdicts(t *testing.T) {
	cases := litmus.Cases()
	hs := make([]*history.History, len(cases))
	for i, c := range cases {
		hs[i] = c.H
	}
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	rep := mustRun(t, context.Background(), checkJob(hs, criteria), 4)
	if len(rep.Check) != len(hs) {
		t.Fatalf("got %d results, want %d", len(rep.Check), len(hs))
	}
	for i, h := range hs {
		for j, c := range criteria {
			if got, want := rep.Check[i][j].String(), spec.Check(h, c).String(); got != want {
				t.Errorf("case %q: got %q, want %q", cases[i].Name, got, want)
			}
		}
	}
}

func TestResolveJobs(t *testing.T) {
	if j := resolveJobs(0, 100); j < 1 {
		t.Errorf("resolveJobs(0, 100) = %d", j)
	}
	if j := resolveJobs(8, 3); j != 3 {
		t.Errorf("resolveJobs(8, 3) = %d, want 3", j)
	}
	if j := resolveJobs(-1, 0); j != 1 {
		t.Errorf("resolveJobs(-1, 0) = %d, want 1", j)
	}
}

func TestCertifyNegativeEpisodesDefaults(t *testing.T) {
	cfg := interleavedCfg("gl", 2)
	cfg.Episodes = -1 // must fall back to the default, not panic
	rep := mustRun(t, context.Background(), certifyJob(cfg, []spec.Criterion{spec.DUOpacity}), 2)
	if stats := rep.Certify; stats.Episodes+stats.Skipped != 20 {
		t.Fatalf("episodes+skipped = %d, want the default 20", stats.Episodes+stats.Skipped)
	}
}

// TestCertifyStreamOrdered: results fold in shard order, not completion
// order. Slowing every third episode makes later shards finish first; the
// statistics (FirstReason included) must still equal the sequential
// certification's.
func TestCertifyStreamOrdered(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	cfg := interleavedCfg("ple", 12)
	want, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rejected[spec.DUOpacity] == 0 {
		t.Fatal("sanity: ple episodes should be rejected, so FirstReason pins the fold order")
	}
	ff := &chaos.FarmFaults{SlowEvery: 3, Delay: 5 * time.Millisecond}
	for _, jobs := range []int{3, 8} {
		rep := mustRun(t, chaos.WithFarmFaults(context.Background(), ff), certifyJob(cfg, criteria), jobs)
		if !reflect.DeepEqual(*rep.Certify, want) {
			t.Errorf("jobs=%d: folded statistics differ from sequential certification\n got: %+v\nwant: %+v",
				jobs, *rep.Certify, want)
		}
	}
	if ff.Slowed() == 0 {
		t.Fatal("no shard was slowed")
	}
}

// TestCertifyStreamContextCancel: cancelling mid-run stops the farm with
// the context's error; unclaimed shards never start.
func TestCertifyStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ff := &chaos.FarmFaults{SlowEvery: 1, Delay: 20 * time.Millisecond}
	time.AfterFunc(30*time.Millisecond, cancel)
	_, err := certifyJob(interleavedCfg("tl2", 64), []spec.Criterion{spec.DUOpacity}).Run(chaos.WithFarmFaults(ctx, ff), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ff.Slowed(); n >= 64 {
		t.Fatalf("all %d shards started after the cancel", n)
	}
}

// TestCertifyMatchesStreamedFold: the rendered job report of a local run
// equals the sequential certification's table across jobs settings.
func TestCertifyMatchesStreamedFold(t *testing.T) {
	cfg := interleavedCfg("tl2", 16)
	criteria := []spec.Criterion{spec.DUOpacity, spec.StrictSerializability}
	want, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNormalize(t, certifyJob(cfg, criteria))
	for _, jobs := range []int{1, 4} {
		if got := FormatJobReport(s, mustRun(t, context.Background(), s, jobs)); got != harness.FormatCertTable(want, criteria) {
			t.Errorf("jobs=%d: report differs from sequential harness.Certify:\n%s", jobs, got)
		}
	}
}
