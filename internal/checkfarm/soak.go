package checkfarm

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
	"duopacity/internal/spec"
)

// SoakEngines is the default engine set of the differential soak: every
// registered engine family (the validating etl variant is covered by the
// base etl knob and can be added explicitly), including the
// parallel-certification pdur engine.
func SoakEngines() []string {
	return []string{"gl", "ple", "norec", "tl2", "etl", "dstm", "pdur"}
}

// SoakEngineMatrix is the extended soak grid: the engine families plus a
// bounded sample of contention-managed cells — one cell per CM policy,
// spread across the CM-capable engines so every policy and every
// CM-capable engine family appears without multiplying the grid (CI
// time stays near-flat; the full matrix remains reachable by listing
// names explicitly).
func SoakEngineMatrix() []string {
	return append(SoakEngines(),
		"tl2+karma", "norec+backoff", "dstm+greedy", "pdur+backoff", "etl+karma")
}

// SoakConfig parameterizes a differential soak run.
type SoakConfig struct {
	// Engines to exercise (default SoakEngines()).
	Engines []string
	// Criteria to check each recorded history against (default
	// spec.AllCriteria()).
	Criteria []spec.Criterion
	// Rounds of the randomized workload grid (default 6). Every engine
	// sees the same per-round workload shape, once under real concurrency
	// and once under the deterministic interleaved scheduler, so the
	// engines are compared on identical plans.
	Rounds int
	// Seed randomizes the workload grid; rounds derive their shapes and
	// seeds purely from it.
	Seed int64
	// NodeLimit bounds each exact check and each shrinking re-check
	// (default 300_000).
	NodeLimit int
}

// soakMaxTxns skips soak histories too large for exact checking.
const soakMaxTxns = 40

func (c SoakConfig) withDefaults() SoakConfig {
	if len(c.Engines) == 0 {
		c.Engines = SoakEngines()
	}
	if len(c.Criteria) == 0 {
		c.Criteria = spec.AllCriteria()
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.NodeLimit <= 0 {
		c.NodeLimit = 300_000
	}
	return c
}

// roundWorkload derives round r's workload shape deterministically from
// the soak seed. The shapes stay small (exact checking is exponential in
// the worst case) but contended: few objects, several threads.
func (c SoakConfig) roundWorkload(r int) harness.Workload {
	rng := lazyrand.New(c.Seed*1_000_003 + int64(r))
	return harness.Workload{
		Objects:          2 + rng.Intn(4), // 2..5
		Goroutines:       2 + rng.Intn(5), // 2..6
		TxnsPerGoroutine: 2 + rng.Intn(2), // 2..3
		OpsPerTxn:        2 + rng.Intn(5), // 2..6
		ReadFraction:     []float64{0.3, 0.5, 0.7}[rng.Intn(3)],
		Seed:             c.Seed + int64(r)*7_919_919,
	}
}

// SoakCell is one (engine, round, mode) observation of the soak grid: the
// certify episode of the round's workload on the engine.
type SoakCell struct {
	Engine string
	Round  int
	// Probe marks the deterministic interleaved execution of the round's
	// plan; otherwise the cell ran under real goroutines.
	Probe    bool
	Workload harness.Workload
	// EpisodeReport is the cell's history and verdicts. Skipped is set
	// when the history exceeded soakMaxTxns. Degraded is set when the cell
	// could not be observed at all: its shard panicked past its retries,
	// or (under internal/certd) its worker died past its lease retries.
	// Skipped and degraded cells are excluded from the per-criterion
	// counts, but a degradation is always reported, never a silent drop.
	harness.EpisodeReport
}

// Divergence records a history on which the criteria disagree — or, when
// Accepted is empty, a history every criterion rejects. Minimal is the
// greedily shrunk counterexample that still violates Criterion (the
// strongest rejecting criterion in the soak's criteria order).
type Divergence struct {
	Engine    string
	Round     int
	Probe     bool
	Accepted  []spec.Criterion
	Rejected  []spec.Criterion
	Criterion spec.Criterion
	Reason    string
	History   *history.History
	Minimal   *history.History
}

// SoakResult aggregates a differential soak run.
type SoakResult struct {
	Cells       []SoakCell
	Divergences []Divergence
	// Stats counts each engine's cells per criterion, as
	// CertStats.AddEpisode folds certify episodes: skipped cells count
	// only as Skipped, degraded cells not at all.
	Stats map[string]*harness.CertStats
	// Degraded counts cells lost to worker failures (see
	// SoakCell.Degraded).
	Degraded int
}

// MinimalCounterexample returns the smallest shrunk counterexample the
// soak found for the engine under the criterion, or nil.
func (r *SoakResult) MinimalCounterexample(engine string, c spec.Criterion) *history.History {
	var best *history.History
	for _, d := range r.Divergences {
		if d.Engine != engine || d.Criterion != c || d.Minimal == nil {
			continue
		}
		if best == nil || d.Minimal.Len() < best.Len() {
			best = d.Minimal
		}
	}
	return best
}

// soakTask names one cell of the soak grid. The task order — rounds
// outermost, engines inner, the concurrent cell before its interleaved
// probe — is the soak's canonical shard order (soak jobs index shards
// into this list, in process and under certd).
type soakTask struct {
	engine string
	round  int
	probe  bool
}

// soakTasks expands the grid of a defaulted config into its canonical
// task list.
func soakTasks(cfg SoakConfig) []soakTask {
	var tasks []soakTask
	for r := 0; r < cfg.Rounds; r++ {
		for _, e := range cfg.Engines {
			tasks = append(tasks, soakTask{engine: e, round: r, probe: false})
			tasks = append(tasks, soakTask{engine: e, round: r, probe: true})
		}
	}
	return tasks
}

// episode is the certify episode a task observes: the round's workload
// on the task's engine, interleaved for a probe, under the soak's node
// limit and transaction cap. Its episode 0 runs the round's seed.
func (c SoakConfig) episode(t soakTask) harness.CertConfig {
	w := c.roundWorkload(t.round)
	w.Engine = t.engine
	return harness.CertConfig{Workload: w, NodeLimit: c.NodeLimit, MaxTxns: soakMaxTxns, Interleaved: t.probe}
}

// foldSoak aggregates the episodes of the soak's cells, given in
// canonical task order, into the soak result: per-criterion counts,
// divergence extraction, and greedy shrinking of each divergent history
// (jobs bounds the shrinking pool). cfg must be the same (defaulted)
// config the episodes were observed under, since shrinking re-checks with
// the soak's node limit.
func foldSoak(ctx context.Context, cfg SoakConfig, episodes []harness.EpisodeReport, jobs int) (*SoakResult, error) {
	checkOpt := spec.WithNodeLimit(cfg.NodeLimit)
	res := &SoakResult{Stats: make(map[string]*harness.CertStats, len(cfg.Engines))}
	for _, e := range cfg.Engines {
		st := harness.NewCertStats(e)
		res.Stats[e] = &st
	}
	// Divergence extraction and shrinking, also sharded: shrinking re-runs
	// the checker O(events) times per counterexample.
	divIdx := make([]int, 0, len(episodes))
	for i, t := range soakTasks(cfg) {
		cell := SoakCell{Engine: t.engine, Round: t.round, Probe: t.probe, Workload: cfg.episode(t).Workload, EpisodeReport: episodes[i]}
		res.Cells = append(res.Cells, cell)
		if cell.Degraded != "" {
			res.Degraded++
			continue
		}
		res.Stats[cell.Engine].AddEpisode(cfg.Criteria, cell.EpisodeReport)
		// A skipped cell has no verdicts, which firstRejected would read
		// as rejections.
		if !cell.Skipped && firstRejected(cfg.Criteria, cell.Verdicts) != 0 {
			divIdx = append(divIdx, i)
		}
	}
	divs := make([]Divergence, len(divIdx))
	err := shard(ctx, len(divIdx), jobs, func(j int) error {
		cell := res.Cells[divIdx[j]]
		target := firstRejected(cfg.Criteria, cell.Verdicts)
		d := Divergence{
			Engine:    cell.Engine,
			Round:     cell.Round,
			Probe:     cell.Probe,
			Criterion: target,
			History:   cell.History,
		}
		for _, c := range cfg.Criteria {
			v := cell.Verdicts[c]
			switch {
			case v.Undecided:
			case v.OK:
				d.Accepted = append(d.Accepted, c)
			default:
				d.Rejected = append(d.Rejected, c)
			}
		}
		// Shrink while preserving the cell's full differential signature:
		// every originally-decided criterion must keep its verdict, so the
		// minimal history demonstrates the same separation (not merely
		// some violation of the target — a plain sourceless read would
		// satisfy that and lose the divergence).
		decided := append(slices.Clip(d.Accepted), d.Rejected...)
		d.Minimal = gen.Shrink(cell.History, func(g *history.History) bool {
			for i, v := range spec.CheckAll(g, decided, checkOpt) {
				if i < len(d.Accepted) && !v.OK || i >= len(d.Accepted) && (v.OK || v.Undecided) {
					return false
				}
			}
			return true
		})
		d.Reason = spec.CheckAll(d.Minimal, []spec.Criterion{target}, checkOpt)[0].Reason
		divs[j] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Divergences = divs
	return res, nil
}

// firstRejected returns the first criterion (in order) with a decided
// rejection, or 0 when every criterion accepts or is undecided.
func firstRejected(criteria []spec.Criterion, verdicts map[spec.Criterion]spec.Verdict) spec.Criterion {
	for _, c := range criteria {
		if v := verdicts[c]; !v.OK && !v.Undecided {
			return c
		}
	}
	return 0
}

// FormatSoakReport renders the aggregate table and the shrunk
// counterexamples: per engine and criterion, accepted/rejected(/undecided)
// cell counts, then one minimal counterexample per (engine, criterion)
// divergence class in histio text format.
func FormatSoakReport(cfg SoakConfig, res *SoakResult) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "differential soak: %d engines x %d criteria, %d cells (%d divergent)\n",
		len(cfg.Engines), len(cfg.Criteria), len(res.Cells), len(res.Divergences))
	if res.Degraded > 0 {
		fmt.Fprintf(&b, "%d cell(s) degraded: lost to worker failures, excluded from the counts below\n", res.Degraded)
	}
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "engine")
	for _, c := range cfg.Criteria {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, e := range cfg.Engines {
		fmt.Fprint(tw, e)
		for _, c := range cfg.Criteria {
			st := res.Stats[e]
			cellTxt := fmt.Sprintf("%d/%d", st.Accepted[c], st.Rejected[c])
			if u := st.Undecided[c]; u > 0 {
				cellTxt += fmt.Sprintf("(%d?)", u)
			}
			fmt.Fprintf(tw, "\t%s", cellTxt)
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
	b.WriteString("cells are accepted/rejected counts (undecided in parentheses)\n")

	// One minimal counterexample per (engine, criterion), smallest first.
	type classKey struct {
		engine string
		c      spec.Criterion
	}
	best := make(map[classKey]Divergence)
	for _, d := range res.Divergences {
		k := classKey{d.Engine, d.Criterion}
		cur, ok := best[k]
		// Prefer a true divergence (some criterion still accepts) over an
		// all-reject violation; among equals, the smaller counterexample.
		switch {
		case !ok:
		case len(d.Accepted) > 0 && len(cur.Accepted) == 0:
		case len(d.Accepted) > 0 == (len(cur.Accepted) > 0) && d.Minimal.Len() < cur.Minimal.Len():
		default:
			continue
		}
		best[k] = d
	}
	keys := make([]classKey, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].engine != keys[j].engine {
			return keys[i].engine < keys[j].engine
		}
		return keys[i].c < keys[j].c
	})
	for _, k := range keys {
		d := best[k]
		mode := "concurrent"
		if d.Probe {
			mode = "interleaved probe"
		}
		fmt.Fprintf(&b, "\n%s violates %s (round %d, %s; shrunk %d -> %d events)\n",
			d.Engine, d.Criterion, d.Round, mode, d.History.Len(), d.Minimal.Len())
		fmt.Fprintf(&b, "  reason: %s\n", d.Reason)
		if len(d.Accepted) > 0 {
			names := make([]string, len(d.Accepted))
			for i, c := range d.Accepted {
				names[i] = c.String()
			}
			fmt.Fprintf(&b, "  still accepted by: %s\n", strings.Join(names, ", "))
		}
		for _, line := range strings.Split(strings.TrimRight(histio.FormatString(d.Minimal), "\n"), "\n") {
			fmt.Fprintf(&b, "  | %s\n", line)
		}
	}
	return b.String()
}
