// This file is the farm's process boundary: serializable descriptions of
// farm jobs (JobSpec), of their independent work units (shards), and of
// per-shard results (ShardResult), plus the two entry points every farm
// runs — RunShard, the compute of one shard, and FoldJob, the ordered
// aggregation. A shard is a pure function of (spec, index) and results
// are folded strictly in shard order, so the folded report is the same
// whether JobSpec.Run computed the shards in process or internal/certd
// shipped them as JSON to remote workers, and it matches the sequential
// reference paths (harness.Certify, harness.ExplorePlanCtx, spec.CheckAll;
// TestFoldMatchesLocalFarm*). Histories, plans and witnesses travel in
// the histio / stm text formats, which are lossless for everything the
// folds consume.
package checkfarm

import (
	"context"
	"fmt"
	"math"
	"strings"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// ShardKind names the farm mode a job distributes.
type ShardKind string

const (
	// KindCertify shards the episodes of harness.Certify: shard i is
	// episode i of the certification config.
	KindCertify ShardKind = "certify"
	// KindExplore shards a batch of plans: shard i is the exhaustive
	// exploration of plan i (harness.ExplorePlanCtx).
	KindExplore ShardKind = "explore"
	// KindCheck shards a batch of histories: shard i decides every
	// requested criterion on history i with one spec.CheckAll.
	KindCheck ShardKind = "check"
	// KindSoak shards the cells of the differential soak: shard i is the
	// certify episode of cell i in the canonical (round, engine, mode)
	// grid order.
	KindSoak ShardKind = "soak"
)

// JobSpec is a complete, serializable description of one farm job. Kind
// selects the mode; exactly the matching payload field must be set.
type JobSpec struct {
	Kind    ShardKind   `json:"kind"`
	Certify *CertifyJob `json:"certify,omitempty"`
	Explore *ExploreJob `json:"explore,omitempty"`
	Check   *CheckJob   `json:"check,omitempty"`
	Soak    *SoakJob    `json:"soak,omitempty"`
}

// CertifyJob distributes harness.Certify: each shard runs one episode.
type CertifyJob struct {
	Config   harness.CertConfig `json:"config"`
	Criteria []spec.Criterion   `json:"criteria"`
}

// ExploreJob distributes plan exploration: each shard explores one plan.
// Config is shared by every shard, so a Config.OnSchedule callback must
// be safe for concurrent use when the job runs with jobs > 1.
type ExploreJob struct {
	Engine string                `json:"engine"`
	Plans  []WirePlan            `json:"plans"`
	Config harness.ExploreConfig `json:"config"`
}

// CheckJob distributes a batch check: each shard checks one history
// (histio text format) against every criterion. NodeLimit 0 leaves the
// searches unbounded, as ducheck's batch mode does.
type CheckJob struct {
	Histories []string         `json:"histories"`
	Criteria  []spec.Criterion `json:"criteria"`
	NodeLimit int              `json:"node_limit,omitempty"`
}

// SoakJob distributes the differential soak: each shard observes one
// cell of the canonical grid; divergence extraction and shrinking run at
// the fold.
type SoakJob struct {
	Config SoakConfig `json:"config"`
}

// WirePlan carries an stm.Plan as text plus its explicit object count
// (ParsePlan infers Objects from the largest index used, which loses
// planned-but-untouched objects).
type WirePlan struct {
	Objects int    `json:"objects"`
	Text    string `json:"text"`
}

// WirePlanOf encodes a plan.
func WirePlanOf(p stm.Plan) WirePlan {
	return WirePlan{Objects: p.Objects, Text: p.String()}
}

// Plan decodes the plan back.
func (w WirePlan) Plan() (stm.Plan, error) {
	p, err := stm.ParsePlan(w.Text)
	if err != nil {
		return stm.Plan{}, err
	}
	if w.Objects > p.Objects {
		p.Objects = w.Objects
	}
	return p, nil
}

// Normalize validates the spec and pins every defaulted knob, so that
// NumShards and RunShard become pure functions of the returned spec —
// the property that lets a coordinator and its workers agree on the work
// without sharing memory. It applies the sequential paths' defaulting
// (CertConfig.WithDefaults, SoakConfig.withDefaults, the explorer's
// criterion default). Engine names — including "engine+cm" matrix cells
// — are validated through engines.Parse, so a bad name fails at submit
// time on the coordinator, not at lease time on some worker.
func (s JobSpec) Normalize() (JobSpec, error) {
	switch s.Kind {
	case KindCertify:
		if s.Certify == nil || len(s.Certify.Criteria) == 0 {
			return s, fmt.Errorf("checkfarm: certify job wants a payload with criteria")
		}
		c := *s.Certify
		c.Config = c.Config.WithDefaults()
		if _, _, err := engines.Parse(c.Config.Engine); err != nil {
			return s, fmt.Errorf("checkfarm: certify job: %w", err)
		}
		s.Certify = &c
	case KindExplore:
		if s.Explore == nil || len(s.Explore.Plans) == 0 {
			return s, fmt.Errorf("checkfarm: explore job wants a payload with plans")
		}
		e := *s.Explore
		if _, _, err := engines.Parse(e.Engine); err != nil {
			return s, fmt.Errorf("checkfarm: explore job: %w", err)
		}
		if e.Config.Criterion == 0 {
			e.Config.Criterion = spec.DUOpacity
		}
		if err := harness.CheckExploreCriterion(e.Config.Criterion); err != nil {
			return s, fmt.Errorf("checkfarm: explore job: %w", err)
		}
		for i, wp := range e.Plans {
			if _, err := wp.Plan(); err != nil {
				return s, fmt.Errorf("checkfarm: explore job plan %d: %w", i, err)
			}
		}
		s.Explore = &e
	case KindCheck:
		if s.Check == nil || len(s.Check.Histories) == 0 || len(s.Check.Criteria) == 0 {
			return s, fmt.Errorf("checkfarm: check job wants histories and criteria")
		}
		for i, src := range s.Check.Histories {
			if _, err := histio.ParseString(src); err != nil {
				return s, fmt.Errorf("checkfarm: check job history %d: %w", i, err)
			}
		}
	case KindSoak:
		if s.Soak == nil {
			return s, fmt.Errorf("checkfarm: soak job wants a payload")
		}
		sk := *s.Soak
		sk.Config = sk.Config.withDefaults()
		for _, e := range sk.Config.Engines {
			if _, _, err := engines.Parse(e); err != nil {
				return s, fmt.Errorf("checkfarm: soak job: %w", err)
			}
		}
		s.Soak = &sk
	default:
		return s, fmt.Errorf("checkfarm: unknown job kind %q", s.Kind)
	}
	return s, nil
}

// NumShards is the number of independent work units of a normalized
// spec.
func (s JobSpec) NumShards() int {
	switch s.Kind {
	case KindCertify:
		return s.Certify.Config.Episodes
	case KindExplore:
		return len(s.Explore.Plans)
	case KindCheck:
		return len(s.Check.Histories)
	case KindSoak:
		// Counted, not built: a spec off the wire may ask for any number of
		// rounds, and a count past math.MaxInt saturates instead of wrapping.
		cells := 2 * len(s.Soak.Config.Engines) // a concurrent cell and its probe per engine and round
		if s.Soak.Config.Rounds > math.MaxInt/cells {
			return math.MaxInt
		}
		return s.Soak.Config.Rounds * cells
	}
	return 0
}

// WireVerdict is spec.Verdict in serializable form. Where a consumer
// prints verdicts (check jobs, explore violations) the witness travels as
// the text of its seq(S), enough to reproduce the CLI output byte for
// byte; the structural witness stays local. Episodes — certify episodes
// and soak cells — carry the verdict bits only (see WireEpisode).
type WireVerdict struct {
	Criterion spec.Criterion `json:"criterion"`
	OK        bool           `json:"ok,omitempty"`
	Undecided bool           `json:"undecided,omitempty"`
	Reason    string         `json:"reason,omitempty"`
	Nodes     int            `json:"nodes,omitempty"`
	Witness   string         `json:"witness,omitempty"`
}

// WireVerdictOf encodes a verdict, the text of v.Witness() included (so,
// for a session's verdict, before the session's next Append or Rewind).
func WireVerdictOf(v spec.Verdict) WireVerdict {
	w := wireVerdictBits(v)
	if s := v.Witness(); s != nil {
		w.Witness = s.String()
	}
	return w
}

// wireVerdictBits encodes a verdict without its witness.
func wireVerdictBits(v spec.Verdict) WireVerdict {
	return WireVerdict{Criterion: v.Criterion, OK: v.OK, Undecided: v.Undecided, Reason: v.Reason, Nodes: v.Nodes}
}

// Verdict decodes back to a spec.Verdict whose Witness is nil: witness
// text cannot be rebuilt into a serialization of a history the decoder
// does not have, and a certify episode's verdicts carry none. No fold
// consumes it — aggregation only reads OK/Undecided/Reason.
func (w WireVerdict) Verdict() spec.Verdict {
	return spec.Verdict{Criterion: w.Criterion, OK: w.OK, Undecided: w.Undecided, Reason: w.Reason, Nodes: w.Nodes}
}

// String renders exactly as spec.Verdict.String does for a verdict of
// spec.CheckAll, witness included. Every acceptance CheckAll returns
// carries its serialization, so an OK renders its brackets even when the
// witness is the empty serialization (a history whose serialization has
// no transactions: "OK []").
func (w WireVerdict) String() string {
	switch {
	case w.Undecided:
		return fmt.Sprintf("%s: undecided (%s)", w.Criterion, w.Reason)
	case w.OK:
		return fmt.Sprintf("%s: OK [%s]", w.Criterion, w.Witness)
	default:
		return fmt.Sprintf("%s: violated (%s)", w.Criterion, w.Reason)
	}
}

// WireEpisode is harness.EpisodeReport without witness text: its verdicts
// carry the criterion, OK, Undecided, Reason and Nodes only. Certify
// aggregation (CertStats.AddEpisode) reads nothing else, and rendering
// seven witnesses per episode was most of a certify shard's result bytes;
// keeping episodes light is what makes remote certification cheap. For
// the same reason only a soak cell carries its recorded history (histio
// text), which the soak's fold shrinks; certify shards leave it empty.
type WireEpisode struct {
	Skipped  bool          `json:"skipped,omitempty"`
	Degraded string        `json:"degraded,omitempty"`
	Verdicts []WireVerdict `json:"verdicts,omitempty"`
	History  string        `json:"history,omitempty"`
}

// Report decodes back into the report shape CertStats.AddEpisode folds.
func (w WireEpisode) Report() (harness.EpisodeReport, error) {
	r := harness.EpisodeReport{Skipped: w.Skipped, Degraded: w.Degraded}
	if len(w.Verdicts) > 0 {
		r.Verdicts = make(map[spec.Criterion]spec.Verdict, len(w.Verdicts))
		for _, v := range w.Verdicts {
			r.Verdicts[v.Criterion] = v.Verdict()
		}
	}
	if w.History != "" {
		h, err := histio.ParseString(w.History)
		if err != nil {
			return r, err
		}
		r.History = h
	}
	return r, nil
}

func wireEpisodeOf(r harness.EpisodeReport, criteria []spec.Criterion) WireEpisode {
	w := WireEpisode{Skipped: r.Skipped, Degraded: r.Degraded}
	if r.Verdicts != nil {
		for _, c := range criteria {
			w.Verdicts = append(w.Verdicts, wireVerdictBits(r.Verdicts[c]))
		}
	}
	return w
}

// WireViolation is ExploreViolation with the violating prefix in histio
// text.
type WireViolation struct {
	Schedule []int       `json:"schedule"`
	History  string      `json:"history"`
	Verdict  WireVerdict `json:"verdict"`
	At       int         `json:"at"`
}

// WireExplore is harness.ExploreReport in serializable form.
type WireExplore struct {
	Engine         string         `json:"engine"`
	Criterion      spec.Criterion `json:"criterion"`
	Plan           WirePlan       `json:"plan"`
	Outcome        uint8          `json:"outcome"`
	Schedules      int            `json:"schedules"`
	PrefixCut      int            `json:"prefix_cut"`
	Violations     int            `json:"violations"`
	Violation      *WireViolation `json:"violation,omitempty"`
	SleepPruned    int            `json:"sleep_pruned"`
	SymmetryPruned int            `json:"symmetry_pruned"`
	Steps          int64          `json:"steps"`
	Replays        int            `json:"replays"`
	StepsExecuted  int64          `json:"steps_executed"`
	Forks          int            `json:"forks"`
	MonitorEvents  int64          `json:"monitor_events"`
	SharedEvents   int64          `json:"shared_events"`
	ClassHits      int64          `json:"class_hits"`
	MaxFrontier    int            `json:"max_frontier"`
	Undecided      int            `json:"undecided"`
	DegradedReason string         `json:"degraded_reason,omitempty"`
}

// WireExploreOf encodes an exploration report.
func WireExploreOf(r harness.ExploreReport) WireExplore {
	w := WireExplore{
		Engine: r.Engine, Criterion: r.Criterion, Plan: WirePlanOf(r.Plan),
		Outcome: uint8(r.Outcome), Schedules: r.Schedules, PrefixCut: r.PrefixCut,
		Violations: r.Violations, SleepPruned: r.SleepPruned, SymmetryPruned: r.SymmetryPruned,
		Steps: r.Steps, Replays: r.Replays, MaxFrontier: r.MaxFrontier,
		StepsExecuted: r.StepsExecuted, Forks: r.Forks,
		MonitorEvents: r.MonitorEvents, SharedEvents: r.SharedEvents, ClassHits: r.ClassHits,
		Undecided: r.Undecided, DegradedReason: r.DegradedReason,
	}
	if r.Violation != nil {
		w.Violation = &WireViolation{
			Schedule: r.Violation.Schedule,
			History:  histio.FormatString(r.Violation.History),
			Verdict:  WireVerdictOf(r.Violation.Verdict),
			At:       r.Violation.At,
		}
	}
	return w
}

// Report decodes back; plan and violating history are re-parsed from
// their lossless text forms.
func (w WireExplore) Report() (harness.ExploreReport, error) {
	p, err := w.Plan.Plan()
	if err != nil {
		return harness.ExploreReport{}, err
	}
	r := harness.ExploreReport{
		Engine: w.Engine, Criterion: w.Criterion, Plan: p,
		Outcome: harness.ExploreOutcome(w.Outcome), Schedules: w.Schedules,
		PrefixCut: w.PrefixCut, Violations: w.Violations,
		SleepPruned: w.SleepPruned, SymmetryPruned: w.SymmetryPruned,
		Steps: w.Steps, Replays: w.Replays, MaxFrontier: w.MaxFrontier,
		StepsExecuted: w.StepsExecuted, Forks: w.Forks,
		MonitorEvents: w.MonitorEvents, SharedEvents: w.SharedEvents, ClassHits: w.ClassHits,
		Undecided: w.Undecided, DegradedReason: w.DegradedReason,
	}
	if w.Violation != nil {
		h, herr := histio.ParseString(w.Violation.History)
		if herr != nil {
			return harness.ExploreReport{}, herr
		}
		r.Violation = &harness.ExploreViolation{
			Schedule: w.Violation.Schedule,
			History:  h,
			Verdict:  w.Violation.Verdict.Verdict(),
			At:       w.Violation.At,
		}
	}
	return r, nil
}

// ShardResult is the serializable outcome of one shard; the field
// matching the job's kind is set (Episode for certify and soak jobs).
type ShardResult struct {
	Episode *WireEpisode  `json:"episode,omitempty"`
	Explore *WireExplore  `json:"explore,omitempty"`
	Check   []WireVerdict `json:"check,omitempty"`
	// Degraded is set (with the reason) when the result is a coordinator-
	// substituted degradation artifact rather than a computed one — the
	// distributed analog of a shard panicking past its retries.
	Degraded string `json:"degraded,omitempty"`
}

// RunShard computes shard i of a normalized spec — the worker-side
// compute unit. It is a pure function of (spec, i) up to scheduling
// nondeterminism of real-goroutine workloads (under Interleaved configs
// it is bit-reproducible). Cancellation propagates into checks, monitors
// and explorations.
func (s JobSpec) RunShard(ctx context.Context, i int) (ShardResult, error) {
	if i < 0 || i >= s.NumShards() {
		return ShardResult{}, fmt.Errorf("checkfarm: shard %d out of range (%d shards)", i, s.NumShards())
	}
	switch s.Kind {
	case KindCertify:
		r, err := harness.CertifyEpisodeCtx(ctx, s.Certify.Config, i, s.Certify.Criteria)
		if err != nil {
			return ShardResult{}, err
		}
		ep := wireEpisodeOf(r, s.Certify.Criteria)
		r.Release()
		return ShardResult{Episode: &ep}, nil
	case KindExplore:
		p, err := s.Explore.Plans[i].Plan()
		if err != nil {
			return ShardResult{}, err
		}
		r, err := harness.ExplorePlanCtx(ctx, s.Explore.Engine, p, s.Explore.Config)
		if err != nil {
			return ShardResult{}, err
		}
		w := WireExploreOf(r)
		return ShardResult{Explore: &w}, nil
	case KindCheck:
		h, err := histio.ParseString(s.Check.Histories[i])
		if err != nil {
			return ShardResult{}, err
		}
		opts := []spec.Option{spec.WithNodeLimit(s.Check.NodeLimit)}
		if ctx != nil {
			opts = append(opts, spec.WithContext(ctx))
		}
		vs := make([]WireVerdict, len(s.Check.Criteria))
		for j, v := range spec.CheckAll(h, s.Check.Criteria, opts...) {
			vs[j] = WireVerdictOf(v)
		}
		return ShardResult{Check: vs}, nil
	case KindSoak:
		cfg := s.Soak.Config
		t := soakTasks(cfg)[i]
		r, err := harness.CertifyEpisodeCtx(ctx, cfg.episode(t), 0, cfg.Criteria)
		if err != nil {
			return ShardResult{}, fmt.Errorf("checkfarm: soak %s round %d: %w", t.engine, t.round, err)
		}
		ep := wireEpisodeOf(r, cfg.Criteria)
		ep.History = histio.FormatString(r.History)
		r.Release()
		return ShardResult{Episode: &ep}, nil
	}
	return ShardResult{}, fmt.Errorf("checkfarm: unknown job kind %q", s.Kind)
}

// DegradedShard builds the explicit degradation artifact for a shard
// that could not be computed — a shard that panicked past its retries
// (JobSpec.Run), a worker dead past its lease retries, or a drain with
// the shard still outstanding (internal/certd). Per kind, certify
// episodes and soak cells become harness.DegradedEpisode, explorations a
// BudgetExhausted report with DegradedReason, check rows degraded
// undecided verdicts. Folding a degraded shard always surfaces in the
// report (CertStats.Degraded, SoakResult.Degraded, per-report
// DegradedReason) — never a silent drop.
func (s JobSpec) DegradedShard(i int, reason string) ShardResult {
	res := ShardResult{Degraded: reason}
	switch s.Kind {
	case KindCertify:
		ep := wireEpisodeOf(harness.DegradedEpisode(s.Certify.Criteria, reason), s.Certify.Criteria)
		res.Episode = &ep
	case KindExplore:
		w := WireExplore{
			Engine:         s.Explore.Engine,
			Criterion:      s.Explore.Config.Criterion,
			Plan:           s.Explore.Plans[i],
			Outcome:        uint8(harness.BudgetExhausted),
			DegradedReason: reason,
		}
		res.Explore = &w
	case KindCheck:
		vs := make([]WireVerdict, len(s.Check.Criteria))
		for j, c := range s.Check.Criteria {
			vs[j] = WireVerdict{Criterion: c, Undecided: true, Reason: "degraded: " + reason}
		}
		res.Check = vs
	case KindSoak:
		ep := wireEpisodeOf(harness.DegradedEpisode(s.Soak.Config.Criteria, reason), s.Soak.Config.Criteria)
		res.Episode = &ep
	}
	return res
}

// JobReport is the folded outcome of a job; the field matching the kind
// is set. Check rows keep the wire verdict form (the structural witness
// stays with RunShard); their String renderings match spec.Verdict's
// exactly.
type JobReport struct {
	Kind     ShardKind               `json:"kind"`
	Certify  *harness.CertStats      `json:"certify,omitempty"`
	Explore  []harness.ExploreReport `json:"-"`
	Check    [][]WireVerdict         `json:"check,omitempty"`
	Soak     *SoakResult             `json:"-"`
	Degraded int                     `json:"degraded,omitempty"`
}

// FoldJob aggregates shard results, given in shard order, exactly as the
// sequential paths do: certify results fold through CertStats.AddEpisode
// in episode order (harness.Certify's fold), explorations and check rows
// assemble in input order, soak cells run divergence extraction and
// shrinking (jobs bounds the shrinking pool; shrinking is the only
// compute FoldJob performs). results[i] == nil is rejected — a missing
// shard must be degraded explicitly, not skipped.
func FoldJob(ctx context.Context, s JobSpec, results []*ShardResult, jobs int) (*JobReport, error) {
	if len(results) != s.NumShards() {
		return nil, fmt.Errorf("checkfarm: fold wants %d results, got %d", s.NumShards(), len(results))
	}
	rep := &JobReport{Kind: s.Kind}
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("checkfarm: fold: missing result for shard %d (degrade it explicitly)", i)
		}
		if r.Degraded != "" {
			rep.Degraded++
		}
	}
	switch s.Kind {
	case KindCertify:
		episodes, err := episodeReports(results)
		if err != nil {
			return nil, err
		}
		stats := harness.NewCertStats(s.Certify.Config.Workload.Engine)
		for _, r := range episodes {
			stats.AddEpisode(s.Certify.Criteria, r)
		}
		rep.Certify = &stats
	case KindExplore:
		reports := make([]harness.ExploreReport, len(results))
		for i, r := range results {
			if r.Explore == nil {
				return nil, fmt.Errorf("checkfarm: fold: shard %d carries no exploration", i)
			}
			er, err := r.Explore.Report()
			if err != nil {
				return nil, fmt.Errorf("checkfarm: fold: shard %d: %w", i, err)
			}
			reports[i] = er
		}
		rep.Explore = reports
	case KindCheck:
		rows := make([][]WireVerdict, len(results))
		for i, r := range results {
			if r.Check == nil {
				return nil, fmt.Errorf("checkfarm: fold: shard %d carries no verdicts", i)
			}
			rows[i] = r.Check
		}
		rep.Check = rows
	case KindSoak:
		episodes, err := episodeReports(results)
		if err != nil {
			return nil, err
		}
		res, err := foldSoak(ctx, s.Soak.Config, episodes, jobs)
		if err != nil {
			return nil, err
		}
		rep.Soak = res
	default:
		return nil, fmt.Errorf("checkfarm: unknown job kind %q", s.Kind)
	}
	return rep, nil
}

// episodeReports decodes the episode every result of a certify or soak
// job carries.
func episodeReports(results []*ShardResult) ([]harness.EpisodeReport, error) {
	episodes := make([]harness.EpisodeReport, len(results))
	for i, r := range results {
		if r.Episode == nil {
			return nil, fmt.Errorf("checkfarm: fold: shard %d carries no episode", i)
		}
		ep, err := r.Episode.Report()
		if err != nil {
			return nil, fmt.Errorf("checkfarm: fold: shard %d: %w", i, err)
		}
		episodes[i] = ep
	}
	return episodes, nil
}

// FormatJobReport renders the folded report with the same formatters the
// CLIs use, so a distributed run's output is comparable (and, for
// deterministic jobs, byte-identical) to a local one.
func FormatJobReport(s JobSpec, rep *JobReport) string {
	var b strings.Builder
	if rep.Degraded > 0 {
		fmt.Fprintf(&b, "%d of %d shard(s) degraded (lost to worker failures); their results are explicit undecided artifacts\n",
			rep.Degraded, s.NumShards())
	}
	switch rep.Kind {
	case KindCertify:
		b.WriteString(harness.FormatCertTable(*rep.Certify, s.Certify.Criteria))
	case KindExplore:
		b.WriteString(harness.FormatExploreTable(rep.Explore))
	case KindCheck:
		for i, row := range rep.Check {
			if len(rep.Check) > 1 {
				fmt.Fprintf(&b, "== history %d ==\n", i)
			}
			for _, v := range row {
				fmt.Fprintln(&b, v)
			}
		}
	case KindSoak:
		b.WriteString(FormatSoakReport(s.Soak.Config, rep.Soak))
	}
	return b.String()
}
