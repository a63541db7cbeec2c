package checkfarm

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// runRemote simulates the full distributed path of a job: the spec
// crosses the wire as JSON, every shard is computed by RunShard from the
// decoded copy, every result crosses back as JSON, and the decoded
// results are folded. Anything the wire forms lose shows up as a
// difference against the in-process farm.
func runRemote(t *testing.T, s JobSpec) *JobReport {
	t.Helper()
	specBytes, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	var remote JobSpec
	if err := json.Unmarshal(specBytes, &remote); err != nil {
		t.Fatalf("unmarshal spec: %v", err)
	}
	remote, err = remote.Normalize()
	if err != nil {
		t.Fatalf("normalize decoded spec: %v", err)
	}
	if got, want := remote.NumShards(), s.NumShards(); got != want {
		t.Fatalf("decoded spec has %d shards, original %d", got, want)
	}
	results := make([]*ShardResult, remote.NumShards())
	for i := range results {
		r, err := remote.RunShard(context.Background(), i)
		if err != nil {
			t.Fatalf("RunShard(%d): %v", i, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal result %d: %v", i, err)
		}
		var back ShardResult
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal result %d: %v", i, err)
		}
		results[i] = &back
	}
	rep, err := FoldJob(context.Background(), remote, results, 2)
	if err != nil {
		t.Fatalf("FoldJob: %v", err)
	}
	return rep
}

func mustNormalize(t *testing.T, s JobSpec) JobSpec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return n
}

// assertReports checks that the remote fold of s and a local Run of it
// both render want — a reference computed without RunShard or FoldJob.
func assertReports(t *testing.T, s JobSpec, want string) {
	t.Helper()
	if got := FormatJobReport(s, runRemote(t, s)); got != want {
		t.Fatalf("remote fold diverged from the reference:\nreference:\n%s\nremote:\n%s", want, got)
	}
	if got := FormatJobReport(s, mustRun(t, context.Background(), s, 2)); got != want {
		t.Fatalf("local farm diverged from the reference:\nreference:\n%s\nlocal:\n%s", want, got)
	}
}

// TestFoldMatchesLocalFarmCertify pins the acceptance criterion at the
// checkfarm layer: a certification distributed shard-by-shard over the
// wire, and the same job run by the local farm, fold to the statistics
// of the sequential harness.Certify.
func TestFoldMatchesLocalFarmCertify(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.Serializability}
	s := mustNormalize(t, certifyJob(harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 3, Goroutines: 3, TxnsPerGoroutine: 2, OpsPerTxn: 3, Seed: 42},
		Episodes: 8, Interleaved: true,
	}, criteria))

	want, err := harness.Certify(s.Certify.Config, criteria)
	if err != nil {
		t.Fatalf("sequential Certify: %v", err)
	}
	rep := runRemote(t, s)
	if rep.Certify == nil || !reflect.DeepEqual(want, *rep.Certify) {
		t.Fatalf("remote fold diverged from sequential certification:\nsequential: %+v\nremote:     %+v", want, rep.Certify)
	}
	assertReports(t, s, harness.FormatCertTable(want, criteria))
}

// TestCertifyResultsCarryVerdictBits: a certify shard's verdicts are the
// episode's verdicts minus the witness text, which no certify fold reads;
// a check shard of the same history keeps its witnesses, and since both
// decide through one spec.CheckAll, it agrees with the episode on every
// verdict bit, the node count and the rendering, witness included.
func TestCertifyResultsCarryVerdictBits(t *testing.T) {
	criteria := spec.AllCriteria()
	s := mustNormalize(t, certifyJob(harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 4, Goroutines: 4, TxnsPerGoroutine: 3, OpsPerTxn: 4, Seed: 7},
		Episodes: 4, Interleaved: true,
	}, criteria))
	for i := 0; i < s.NumShards(); i++ {
		res, err := s.RunShard(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := harness.CertifyEpisodeCtx(context.Background(), s.Certify.Config, i, criteria)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Episode.Verdicts) != len(criteria) {
			t.Fatalf("episode %d: %d verdicts for %d criteria", i, len(res.Episode.Verdicts), len(criteria))
		}
		for j, c := range criteria {
			got, want := res.Episode.Verdicts[j], WireVerdictOf(ep.Verdicts[c])
			if got.Witness != "" {
				t.Fatalf("episode %d %s: certify result carries witness text %q", i, c, got.Witness)
			}
			if want.Witness = ""; got != want {
				t.Fatalf("episode %d %s: %+v, want %+v", i, c, got, want)
			}
		}
		check := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
			Histories: []string{histio.FormatString(ep.History)}, Criteria: criteria, NodeLimit: s.Certify.Config.NodeLimit,
		}})
		cres, err := check.RunShard(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range criteria {
			v, w := ep.Verdicts[c], cres.Check[j]
			if w != WireVerdictOf(v) || w.String() != v.String() {
				t.Fatalf("episode %d %s: check shard says %q (%d nodes), certify episode %q (%d nodes)", i, c, w, w.Nodes, v, v.Nodes)
			}
		}
	}
}

func TestFoldMatchesLocalFarmExplore(t *testing.T) {
	plans := []stm.Plan{
		stm.MustParsePlan("w0 | r0 r1\nw1"),
		stm.MustParsePlan("r0 w1\nr1 w0"),
	}
	var hits int64
	for _, eng := range []string{"gl", "tl2"} {
		s := mustNormalize(t, exploreJob(eng, plans, harness.ExploreConfig{}))

		want := make([]harness.ExploreReport, len(plans))
		for i, p := range plans {
			r, err := harness.ExplorePlanCtx(context.Background(), eng, p, harness.ExploreConfig{})
			if err != nil {
				t.Fatalf("sequential exploration %d: %v", i, err)
			}
			want[i] = r
		}
		rep := runRemote(t, s)
		if len(rep.Explore) != len(want) {
			t.Fatalf("remote fold has %d reports, sequential %d", len(rep.Explore), len(want))
		}
		for i := range want {
			l, r := want[i], rep.Explore[i]
			if l.Outcome != r.Outcome || l.Schedules != r.Schedules || l.Steps != r.Steps ||
				l.Violations != r.Violations || l.SleepPruned != r.SleepPruned ||
				l.MonitorEvents != r.MonitorEvents || l.SharedEvents != r.SharedEvents ||
				l.MonitorEvents+l.SharedEvents == 0 || l.ClassHits != r.ClassHits ||
				l.StepsExecuted != r.StepsExecuted || l.Forks != r.Forks ||
				l.Plan.String() != r.Plan.String() || l.Plan.Objects != r.Plan.Objects {
				t.Fatalf("%s plan %d diverged:\nsequential: %+v\nremote:     %+v", eng, i, l, r)
			}
			hits += l.ClassHits
		}
		assertReports(t, s, harness.FormatExploreTable(want))
	}
	if hits == 0 {
		t.Fatal("no event answered from the class set: the ClassHits round trip is vacuous")
	}
}

func TestFoldMatchesLocalFarmCheck(t *testing.T) {
	histories := []string{
		"write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n",
		// Deferred-update violation: T2 reads T1's write before T1 commits.
		"inv write 1 X 5\nres write 1 X 5 ok\nread 2 X 5\ncommit 2\ncommit 1\n",
		// Serializability's witness is the empty serialization: "OK []".
		"write 1 X 1\nabort 1\n",
	}
	criteria := []spec.Criterion{spec.DUOpacity, spec.Serializability}
	s := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
		Histories: histories, Criteria: criteria, NodeLimit: 200_000,
	}})

	var want strings.Builder
	for i, src := range histories {
		h, err := histio.ParseString(src)
		if err != nil {
			t.Fatalf("parse history %d: %v", i, err)
		}
		fmt.Fprintf(&want, "== history %d ==\n", i)
		for _, c := range criteria {
			v := spec.Check(h, c, spec.WithNodeLimit(200_000))
			if i == 1 && c == spec.DUOpacity && v.OK {
				t.Fatalf("sanity: the early-read history should violate du-opacity")
			}
			fmt.Fprintln(&want, v)
		}
	}
	assertReports(t, s, want.String())
}

// TestFoldMatchesLocalFarmSoak: the soak reference observes every cell
// as its certify episode and folds the episodes as they were observed —
// never encoded, never decoded — with foldSoak.
func TestFoldMatchesLocalFarmSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak differential is not -short")
	}
	s := mustNormalize(t, soakJob(SoakConfig{
		Engines:  []string{"gl", "norec"},
		Criteria: []spec.Criterion{spec.DUOpacity, spec.Serializability},
		Rounds:   2,
		Seed:     7,
	}))
	cfg := s.Soak.Config
	tasks := soakTasks(cfg)
	episodes := make([]harness.EpisodeReport, len(tasks))
	for i, task := range tasks {
		ep, err := harness.CertifyEpisodeCtx(context.Background(), cfg.episode(task), 0, cfg.Criteria)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		episodes[i] = ep
	}
	res, err := foldSoak(context.Background(), cfg, episodes, 1)
	if err != nil {
		t.Fatalf("foldSoak: %v", err)
	}
	assertReports(t, s, FormatSoakReport(cfg, res))
}

// TestFoldSoakSkipsSkippedCells: a cell whose history exceeded the soak's
// transaction cap was not checked, so it is no divergence. (Real
// goroutines under etl rarely record more than the cap; its cell then
// surfaced as a du-opacity "violation" with an empty reason that
// shrinking could not reproduce.)
func TestFoldSoakSkipsSkippedCells(t *testing.T) {
	cfg := SoakConfig{Engines: []string{"gl"}, Rounds: 1}.withDefaults()
	h, err := histio.ParseString("write 1 X 1\ncommit 1\n")
	if err != nil {
		t.Fatal(err)
	}
	episodes := make([]harness.EpisodeReport, len(soakTasks(cfg)))
	for i := range episodes {
		episodes[i] = harness.EpisodeReport{Skipped: true, History: h}
	}
	res, err := foldSoak(context.Background(), cfg, episodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 0 || res.Stats["gl"].Skipped != len(episodes) {
		t.Fatalf("%d skipped cells gave %d divergences and %d skipped in the stats", len(episodes), len(res.Divergences), res.Stats["gl"].Skipped)
	}
}

// TestRunShardSoakCancelled: cancellation reaches a soak cell's checks.
// Under an already-cancelled context every verdict of every cell is
// undecided ("context cancelled") or a static rejection, which needs no
// search.
func TestRunShardSoakCancelled(t *testing.T) {
	s := mustNormalize(t, soakJob(SoakConfig{Engines: []string{"gl", "ple"}, Rounds: 1, Seed: 11}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := 0
	for i := 0; i < s.NumShards(); i++ {
		res, err := s.RunShard(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Episode.Verdicts {
			switch {
			case v.Undecided && strings.HasSuffix(v.Reason, "context cancelled"):
				cancelled++
			case v.OK || v.Undecided:
				t.Fatalf("shard %d: %s decided under a cancelled context", i, v)
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("no verdict was cut short by the cancelled context")
	}
}

// TestDegradedShardFold pins the dead-worker contract per kind: a shard
// substituted by DegradedShard folds into an explicit degradation
// artifact — counted, rendered, never silently dropped.
func TestDegradedShardFold(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}

	t.Run("certify", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindCertify, Certify: &CertifyJob{
			Config: harness.CertConfig{
				Workload: harness.Workload{Engine: "gl", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 2, OpsPerTxn: 2, Seed: 1},
				Episodes: 3, Interleaved: true,
			},
			Criteria: criteria,
		}})
		results := make([]*ShardResult, s.NumShards())
		for i := range results {
			if i == 1 {
				r := s.DegradedShard(i, "worker w2 lease expired")
				results[i] = &r
				continue
			}
			r, err := s.RunShard(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = &r
		}
		rep, err := FoldJob(context.Background(), s, results, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded != 1 || rep.Certify.Degraded != 1 {
			t.Fatalf("degraded counts: fold %d, stats %d (want 1, 1)", rep.Degraded, rep.Certify.Degraded)
		}
		if rep.Certify.Undecided[spec.DUOpacity] != 1 {
			t.Fatalf("degraded episode should be undecided: %+v", rep.Certify)
		}
		out := FormatJobReport(s, rep)
		if !strings.Contains(out, "degraded") {
			t.Fatalf("report does not surface the degradation:\n%s", out)
		}
	})

	t.Run("explore", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindExplore, Explore: &ExploreJob{
			Engine: "gl", Plans: []WirePlan{WirePlanOf(stm.MustParsePlan("w0\nr0"))},
		}})
		r := s.DegradedShard(0, "worker lost")
		rep, err := FoldJob(context.Background(), s, []*ShardResult{&r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded != 1 {
			t.Fatalf("fold degraded count %d, want 1", rep.Degraded)
		}
		er := rep.Explore[0]
		if er.Outcome != harness.BudgetExhausted || er.DegradedReason != "worker lost" {
			t.Fatalf("degraded exploration artifact wrong: %+v", er)
		}
	})

	t.Run("check", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
			Histories: []string{"write 1 X 1\ncommit 1\n"},
			Criteria:  criteria,
		}})
		r := s.DegradedShard(0, "worker lost")
		rep, err := FoldJob(context.Background(), s, []*ShardResult{&r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := rep.Check[0][0]
		if !v.Undecided || !strings.Contains(v.Reason, "degraded: worker lost") {
			t.Fatalf("degraded check verdict wrong: %+v", v)
		}
	})

	t.Run("soak", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{
			Engines: []string{"gl"}, Criteria: criteria, Rounds: 1, Seed: 3,
		}}})
		results := make([]*ShardResult, s.NumShards())
		for i := range results {
			if i == 0 {
				r := s.DegradedShard(i, "worker lost")
				results[i] = &r
				continue
			}
			r, err := s.RunShard(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = &r
		}
		rep, err := FoldJob(context.Background(), s, results, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Soak.Degraded != 1 {
			t.Fatalf("soak degraded count %d, want 1", rep.Soak.Degraded)
		}
		out := FormatJobReport(s, rep)
		if !strings.Contains(out, "degraded") {
			t.Fatalf("soak report does not surface the degradation:\n%s", out)
		}
	})
}

// TestFoldRejectsMissingResult: a nil slot must be an error, not a
// silent skip — missing shards are degraded explicitly by the caller.
func TestFoldRejectsMissingResult(t *testing.T) {
	s := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
		Histories: []string{"commit 1\n"}, Criteria: []spec.Criterion{spec.DUOpacity},
	}})
	if _, err := FoldJob(context.Background(), s, []*ShardResult{nil}, 1); err == nil {
		t.Fatalf("FoldJob accepted a missing result")
	}
	if _, err := FoldJob(context.Background(), s, nil, 1); err == nil {
		t.Fatalf("FoldJob accepted a short result slice")
	}
}

// TestJobSpecNormalizeIdempotent: normalization pins every default, so a
// coordinator and a worker normalizing independently agree on the work.
func TestJobSpecNormalizeIdempotent(t *testing.T) {
	specs := []JobSpec{
		{Kind: KindCertify, Certify: &CertifyJob{
			Config:   harness.CertConfig{Workload: harness.Workload{Engine: "tl2"}},
			Criteria: []spec.Criterion{spec.DUOpacity},
		}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl", Plans: []WirePlan{WirePlanOf(stm.MustParsePlan("w0\nr0"))}}},
		{Kind: KindCheck, Check: &CheckJob{Histories: []string{"commit 1\n"}, Criteria: []spec.Criterion{spec.Opacity}}},
		{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{Rounds: 1}}},
	}
	for _, s := range specs {
		n1 := mustNormalize(t, s)
		n2 := mustNormalize(t, n1)
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("%s: Normalize not idempotent:\n1: %+v\n2: %+v", s.Kind, n1, n2)
		}
		if n1.NumShards() <= 0 {
			t.Fatalf("%s: normalized spec has no shards", s.Kind)
		}
		b, err := json.Marshal(n1)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Kind, err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", s.Kind, err)
		}
		if back.NumShards() != n1.NumShards() {
			t.Fatalf("%s: shard count changed over the wire: %d -> %d", s.Kind, n1.NumShards(), back.NumShards())
		}
	}
}

func TestJobSpecValidation(t *testing.T) {
	okPlan := []WirePlan{WirePlanOf(stm.MustParsePlan("w0\nr0"))}
	bad := []JobSpec{
		{Kind: "nope"},
		{Kind: KindCertify},
		{Kind: KindCertify, Certify: &CertifyJob{}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl"}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl", Plans: []WirePlan{{Text: "x9q"}}}},
		{Kind: KindCheck, Check: &CheckJob{Histories: []string{"not a history !!"}, Criteria: []spec.Criterion{spec.DUOpacity}}},
		{Kind: KindSoak},
		// Engine names go through the shared engine[+cm] parser: unknown
		// bases, unknown CM suffixes and CM suffixes on CM-incapable
		// engines all fail at submit time.
		{Kind: KindCertify, Certify: &CertifyJob{
			Config:   harness.CertConfig{Workload: harness.Workload{Engine: "tl2+bogus"}},
			Criteria: []spec.Criterion{spec.DUOpacity},
		}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl+karma", Plans: okPlan}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "nope", Plans: okPlan}},
		{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{Engines: []string{"tl2", "nope"}}}},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d (%s): Normalize accepted an invalid spec", i, s.Kind)
		}
	}
}

// TestJobSpecAcceptsEngineCMMatrix: every engine[+cm] matrix cell is a
// valid job-spec engine name, so certd jobs can target the full grid.
func TestJobSpecAcceptsEngineCMMatrix(t *testing.T) {
	for _, name := range engines.Matrix() {
		s := JobSpec{Kind: KindExplore, Explore: &ExploreJob{
			Engine: name, Plans: []WirePlan{WirePlanOf(stm.MustParsePlan("w0\nr0"))},
		}}
		if _, err := s.Normalize(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	s := JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{
		Engines: SoakEngineMatrix(), Rounds: 1,
	}}}
	if _, err := s.Normalize(); err != nil {
		t.Errorf("soak over SoakEngineMatrix: %v", err)
	}
}

// TestSoakNumShardsCounted: a soak spec's shard count is counted, not
// built — it equals the task list's length, and a round count whose cells
// overflow an int saturates at math.MaxInt instead of wrapping.
func TestSoakNumShardsCounted(t *testing.T) {
	for _, cfg := range []SoakConfig{{}, {Engines: []string{"gl"}, Rounds: 1}, {Engines: []string{"gl", "ple", "tl2"}, Rounds: 5}} {
		s := mustNormalize(t, soakJob(cfg))
		if got, want := s.NumShards(), len(soakTasks(s.Soak.Config)); got != want {
			t.Errorf("%+v: NumShards %d, %d tasks", cfg, got, want)
		}
	}
	huge := mustNormalize(t, soakJob(SoakConfig{Engines: []string{"gl", "ple"}, Rounds: math.MaxInt / 3}))
	if got := huge.NumShards(); got != math.MaxInt {
		t.Errorf("NumShards with %d rounds = %d, want math.MaxInt", huge.Soak.Config.Rounds, got)
	}
}
