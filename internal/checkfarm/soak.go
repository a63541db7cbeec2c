package checkfarm

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"duopacity/internal/chaos"
	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

// SoakEngines is the default engine set of the differential soak: every
// registered engine family (the validating etl variant is covered by the
// base etl knob and can be added explicitly), including the
// parallel-certification pdur engine.
func SoakEngines() []string {
	return []string{"gl", "ple", "norec", "tl2", "etl", "dstm", "pdur"}
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
	// Faults runs every concurrent cell under soakFaults and replays each
	// certified one through the stream stage (replayStream); probe cells
	// stay fault-free. It needs du-opacity among the criteria.
	Faults bool `json:"faults,omitempty"`
}

// SoakFarmFaults is the worker-fault schedule a faulted soak runs under
// (chaos.WithFarmFaults): every 25th shard, from shard 0, panics past its
// retries and degrades, and every 7th is slowed by a millisecond.
func SoakFarmFaults() *chaos.FarmFaults {
	return &chaos.FarmFaults{PanicEvery: 25, PanicAttempts: ShardAttempts, SlowEvery: 7, Delay: time.Millisecond}
}

// soakFaults is the fault profile of a faulted soak's concurrent cells,
// seeded per cell.
var soakFaults = harness.Faults{Profile: chaos.Profile{SpuriousAbort: 0.15, CommitDelay: 0.25}, Kill: 0.15}

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
	// when the history exceeded the certify cap (harness.CertConfig's
	// default MaxTxns). Degraded is set when the cell could not be
	// observed at all: its shard panicked past its retries, or (under
	// internal/certd) its worker died past its lease retries.
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
	// Faults tallies the fault stages of a faulted soak.
	Faults FaultTally
	// Flips is the soundness ledger, capped at 32 entries, and must come
	// back empty: a deferred-update engine's cell that du-opacity
	// rejects (Theorem 11, faulted or not), or a faulted cell whose
	// stream stage broke the stream's contract.
	Flips []Flip
}

// FaultTally counts a faulted soak's observed concurrent cells, those
// skipped past the certify cap on transactions, the transactions their
// histories leave live, and the stream stage's junk events and truncated
// replays.
type FaultTally struct {
	Cells, Skipped, Kills                 int
	JunkInjected, JunkRejected, Truncated int
}

// Flip is one soundness-ledger entry: what broke, in which cell, and when
// it was shrunk, the minimal history that still shows it.
type Flip struct {
	Engine  string
	Round   int
	Probe   bool
	Reason  string
	Minimal *history.History
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
// limit and certification's defaults for the rest (the transaction cap
// among them). Its episode 0 runs the round's seed.
func (c SoakConfig) episode(t soakTask) harness.CertConfig {
	w := c.roundWorkload(t.round)
	w.Engine = t.engine
	if c.Faults && !t.probe {
		f := soakFaults
		f.Seed = w.Seed
		w.Faults = &f
	}
	return harness.CertConfig{Workload: w, NodeLimit: c.NodeLimit, Interleaved: t.probe}.WithDefaults()
}

// foldSoak aggregates the episodes of the soak's cells, given in
// canonical task order, into the soak result: per-criterion counts,
// a faulted cell's stream stage, divergence extraction, greedy shrinking
// of each divergent history (jobs bounds the shrinking pool), and the
// soundness ledger. cfg must be the same (defaulted) config the episodes
// were observed under, since shrinking re-checks with the soak's node
// limit.
func foldSoak(ctx context.Context, cfg SoakConfig, episodes []harness.EpisodeReport, jobs int) (*SoakResult, error) {
	checkOpt := spec.WithNodeLimit(cfg.NodeLimit)
	res := &SoakResult{Stats: make(map[string]*harness.CertStats, len(cfg.Engines))}
	for _, e := range cfg.Engines {
		st := harness.NewCertStats(e)
		res.Stats[e] = &st
	}
	du := slices.Index(cfg.Criteria, spec.DUOpacity)
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
		if cfg.Faults && !t.probe {
			res.Faults.Cells++
			res.Faults.Kills += liveTxns(cell.History)
			if cell.Skipped {
				res.Faults.Skipped++
			} else {
				v := cell.Verdicts[du]
				flips, err := replayStream(cell.History, cell.Workload.Faults.Seed, cfg.NodeLimit, v.OK && !v.Undecided, spec.Check, &res.Faults)
				if err != nil {
					return nil, err
				}
				for _, f := range flips {
					res.flip(cell, f)
				}
			}
		}
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
		for i, c := range cfg.Criteria {
			v := cell.Verdicts[i]
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
	for j, d := range divs {
		if engines.TraitsOf(d.Engine).DeferredUpdate && slices.Contains(d.Rejected, spec.DUOpacity) {
			res.flip(res.Cells[divIdx[j]], Flip{Reason: fmt.Sprintf(
				"a deferred-update engine's history violates du-opacity (shrunk under %s: %s)", d.Criterion, d.Reason),
				Minimal: d.Minimal})
		}
	}
	return res, nil
}

// flip enters f, found in cell, in the ledger, up to its cap.
func (r *SoakResult) flip(cell SoakCell, f Flip) {
	if len(r.Flips) < 32 {
		f.Engine, f.Round, f.Probe = cell.Engine, cell.Round, cell.Probe
		r.Flips = append(r.Flips, f)
	}
}

// liveTxns counts h's transactions that are not t-complete.
func liveTxns(h *history.History) int {
	n := 0
	for _, k := range h.Txns() {
		if !h.Txn(k).TComplete() {
			n++
		}
	}
	return n
}

// replayStream is a faulted cell's stream stage: h's events, cut short
// at a seeded point, go to a du-opacity monitor with chaos.JunkSource junk
// interleaved. Every junk event must be rejected without side effects,
// every recorded event accepted, and the monitor must agree with check
// (spec.Check, but in tests) on the prefix whenever both decide, a
// disagreement shrunk while a junk-free monitor still disagrees. If
// accepted, du-opacity accepts h, so no prefix may latch a violation
// (Corollary 2). The junk and truncation are added to tally.
func replayStream(h *history.History, seed int64, nodeLimit int, accepted bool,
	check func(*history.History, spec.Criterion, ...spec.Option) spec.Verdict, tally *FaultTally) (flips []Flip, err error) {
	opt := spec.WithNodeLimit(nodeLimit)
	flip := func(min *history.History, format string, args ...any) {
		flips = append(flips, Flip{Reason: fmt.Sprintf(format, args...), Minimal: min})
	}
	evs := h.Events()
	cut := len(evs)
	rng := lazyrand.New(seed ^ 0x5dee_ce66d)
	if len(evs) > 0 && rng.Float64() < 0.3 {
		cut = rng.Intn(len(evs) + 1)
		if cut < len(evs) {
			tally.Truncated++
		}
	}
	m, err := spec.NewMonitor(spec.DUOpacity, opt)
	if err != nil {
		return nil, err
	}
	js := chaos.NewJunkSource(seed)
	defer func() { tally.JunkInjected += js.Injected() }()
	for _, e := range evs[:cut] {
		if rng.Float64() < 0.2 {
			junk, class := js.Junk()
			before := m.Len()
			if _, err := m.Append(junk); err == nil {
				flip(nil, "stream accepted a junk event (%s): %v", class, junk)
			} else {
				tally.JunkRejected++
				if m.Len() != before {
					flip(nil, "stream rejected a junk event (%s) with side effects", class)
				}
			}
		}
		if _, err := m.Append(e); err != nil {
			flip(nil, "stream rejected recorded event %v: %v", e, err)
			return flips, nil
		}
		js.Observe(e)
	}

	disagree := func(mv, cv spec.Verdict) bool { return !mv.Undecided && !cv.Undecided && mv.OK != cv.OK }
	mv, cv := m.Verdict(), check(h.Prefix(cut), spec.DUOpacity, opt)
	if disagree(mv, cv) {
		flip(gen.Shrink(h.Prefix(cut), func(g *history.History) bool {
			gm, err := spec.NewMonitor(spec.DUOpacity, opt)
			if err != nil {
				return false
			}
			for _, e := range g.Events() {
				if _, err := gm.Append(e); err != nil {
					return false
				}
			}
			return disagree(gm.Verdict(), check(g, spec.DUOpacity, opt))
		}), "cut %d/%d: the monitor says %s, a batch check of the same prefix %s", cut, len(evs), mv, cv)
	}
	if accepted && !mv.OK && !mv.Undecided {
		flip(nil, "cut %d/%d: a prefix of an accepted history latched a violation: %s", cut, len(evs), mv.Reason)
	}
	return flips, nil
}

// firstRejected returns the first criterion (in order) with a decided
// rejection, or 0 when every criterion accepts or is undecided; verdicts
// are in criteria's order.
func firstRejected(criteria []spec.Criterion, verdicts []spec.Verdict) spec.Criterion {
	for i, c := range criteria {
		if v := verdicts[i]; !v.OK && !v.Undecided {
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
	if cfg.Faults || len(res.Flips) > 0 {
		f := res.Faults
		fmt.Fprintf(&b, "faults: %d concurrent cell(s) faulted, %d skipped; kills=%d junk=%d/%d truncated=%d flips=%d\n",
			f.Cells, f.Skipped, f.Kills, f.JunkRejected, f.JunkInjected, f.Truncated, len(res.Flips))
	}
	for _, f := range res.Flips {
		mode := "concurrent"
		if f.Probe {
			mode = "interleaved probe"
		}
		fmt.Fprintf(&b, "FLIP: %s round %d, %s: %s\n", f.Engine, f.Round, mode, f.Reason)
		if f.Minimal != nil {
			writeHistory(&b, f.Minimal)
		}
	}

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
		writeHistory(&b, d.Minimal)
	}
	return b.String()
}

// writeHistory renders h in histio text, one indented line per event.
func writeHistory(b *strings.Builder, h *history.History) {
	for _, line := range strings.Split(strings.TrimRight(histio.FormatString(h), "\n"), "\n") {
		fmt.Fprintf(b, "  | %s\n", line)
	}
}
