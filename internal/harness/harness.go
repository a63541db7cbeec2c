// Package harness drives the STM engines under configurable workloads and
// certifies what they did against the correctness criteria of the paper
// (Attiya, Hans, Kuznetsov and Ravi, "Safety of Deferred Update in
// Transactional Memory", ICDCS 2013). It is the reproduction of the
// paper's experimental claim — deferred-update engines produce only
// du-opaque histories (Definition 3), the pessimistic in-place engine
// does not — as an executable pipeline, at three levels of assurance:
//
//   - Run / RunRecorded execute a Workload on real goroutines; recorded
//     histories satisfy the unique-writes hypothesis of Theorem 11 (every
//     written value is fresh), so opacity and du-opacity coincide on them.
//   - RunInterleaved replaces the Go scheduler with a deterministic
//     stepwise scheduler: a seeded sample from the schedule space of the
//     workload's plan (stm.Plan), reproducible bit-for-bit anywhere and
//     able to steer through preemption windows real goroutines almost
//     never hit.
//   - ExplorePlanCtx exhausts that same schedule space: every interleaving
//     the engine's Blocking trait allows is enumerated and certified
//     online, with the prefix-closure cut of Corollary 2, sleep sets, and
//     symmetry reduction pruning redundant subtrees — turning
//     per-plan certification from sampled evidence into a proof
//     (ProvenDUOpaque / ViolationFound / BudgetExhausted).
//
// Certify aggregates sampled episodes per criterion; an explore job over
// the PlanOf plans of the same workloads (package checkfarm) proves them
// instead. RunMonitored feeds a spec.Monitor from the recorded log, so a
// violation is latched at the event that caused it.
// Package checkfarm shards all of it across workers. The
// package backs cmd/stmbench, cmd/ducheck -explore, the certification
// examples and the engine benchmarks; see docs/ARCHITECTURE.md for the
// pipeline map.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"duopacity/internal/chaos"
	"duopacity/internal/gen"
	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// Workload parameterizes a run.
type Workload struct {
	Engine           string
	Objects          int
	Goroutines       int
	TxnsPerGoroutine int
	OpsPerTxn        int
	// ReadFraction in [0,1] is the probability that an operation reads.
	// 0 means unset (default 0.5); pass any negative value for an
	// explicit zero — write-only workloads (normalized to 0 by the
	// defaulting, so consumers always see a value in [0,1]).
	ReadFraction float64
	Seed         int64
	// MaxAttempts bounds retries per transaction (default 10_000).
	MaxAttempts int
	// Disjoint partitions the object space: goroutine g draws its
	// objects only from the g-th contiguous block of Objects/Goroutines
	// objects, so goroutines never contend on data. This is the
	// disjoint-access shape parallel-certification engines (pdur) are
	// built for. Requires Objects >= Goroutines (each block must hold
	// at least one object; withDefaults grows Objects if needed).
	Disjoint bool `json:",omitempty"`
	// Faults, when set, injects faults into a run on real goroutines; the
	// stepper ignores it. Only the checkfarm soak's fault mode sets it.
	Faults *Faults `json:"-"`
}

// Faults is a run's fault profile: the engine runs wrapped in
// chaos.Wrap(engine, Profile), and on a KillSafe engine each planned
// transaction is killed with probability Kill — its first attempt stops
// after a drawn number of operations, with no Commit and no Abort, so
// the recorded transaction stays live. The transactions live at the end
// of a run are exactly its kills. Profile.Seed also seeds the kills.
type Faults struct {
	chaos.Profile
	Kill float64
}

func (w Workload) withDefaults() Workload {
	if w.Objects == 0 {
		w.Objects = 8
	}
	if w.Goroutines == 0 {
		w.Goroutines = 4
	}
	if w.TxnsPerGoroutine == 0 {
		w.TxnsPerGoroutine = 100
	}
	if w.OpsPerTxn == 0 {
		w.OpsPerTxn = 4
	}
	if w.ReadFraction == 0 {
		w.ReadFraction = 0.5
	} else if w.ReadFraction < 0 {
		w.ReadFraction = 0 // the documented "explicit zero": write-only
	}
	if w.MaxAttempts == 0 {
		w.MaxAttempts = 10_000
	}
	if w.Disjoint && w.Objects < w.Goroutines {
		w.Objects = w.Goroutines // every goroutine owns at least one object
	}
	return w
}

// ExplicitReadFraction maps a user-facing read-fraction value (a CLI
// flag, say) onto the sentinel contract shared by Workload.ReadFraction
// and gen.Config.ReadFraction: the zero value means "unset" (default
// 0.5), an explicit 0 becomes the documented negative spelling, so
// write-only workloads and histories stay expressible. The canonical
// definition lives with the lighter config, gen.ExplicitReadFraction.
func ExplicitReadFraction(f float64) float64 { return gen.ExplicitReadFraction(f) }

// RunStats summarizes a workload run.
type RunStats struct {
	Engine   string
	Commits  int64
	Aborts   int64 // aborted attempts (retries)
	Failed   int64 // transactions that exhausted MaxAttempts
	Duration time.Duration
}

// TxnPerSec is committed transactions per second.
func (s RunStats) TxnPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Commits) / s.Duration.Seconds()
}

// AbortRate is aborted attempts over all attempts.
func (s RunStats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// planFor precomputes the per-goroutine operation mix so that the
// measured section does no RNG work. The result is the workload's plan:
// everything about the execution except the interleaving. Written values
// are not planned — they are drawn fresh per attempt from the run's value
// source so that retries stay distinguishable. rng is re-seeded for every
// goroutine, so its state on entry does not matter; an episode passes the
// one generator it later re-seeds for its schedule.
func planFor(w Workload, rng *rand.Rand) stm.Plan {
	p := stm.Plan{Objects: w.Objects, Threads: make([][]stm.PlanTxn, w.Goroutines)}
	for g := 0; g < w.Goroutines; g++ {
		rng.Seed(w.Seed + int64(g)*7919)
		// Under Disjoint, goroutine g draws from its own contiguous
		// block of the object space (the access-locality shape
		// partitioned certification exploits).
		lo, span := 0, w.Objects
		if w.Disjoint {
			span = w.Objects / w.Goroutines
			lo = g * span
		}
		txns := make([]stm.PlanTxn, w.TxnsPerGoroutine)
		for i := range txns {
			ops := make(stm.PlanTxn, w.OpsPerTxn)
			for j := range ops {
				ops[j] = stm.PlanOp{Read: rng.Float64() < w.ReadFraction, Obj: lo + rng.Intn(span)}
			}
			txns[i] = ops
		}
		p.Threads[g] = txns
	}
	return p
}

// PlanOf exposes the seeded per-goroutine transaction programs of a
// workload as an stm.Plan — the unit ExplorePlanCtx enumerates and a
// checkfarm explore job shards. The plan is a pure function of the
// workload (seed, shape), exactly the programs Run, RunRecorded and
// RunInterleaved execute.
func PlanOf(w Workload) stm.Plan {
	return planFor(w.withDefaults(), lazyrand.New(0))
}

// Run executes the workload unrecorded and returns performance statistics.
func Run(w Workload) (RunStats, error) {
	w = w.withDefaults()
	eng, err := newEngine(w)
	if err != nil {
		return RunStats{}, err
	}
	return drive(w, lazyrand.New(0), eng.Begin), nil
}

// newEngine builds w's engine, wrapped in w's fault profile if it has one.
func newEngine(w Workload) (stm.Engine, error) {
	eng, err := engines.New(w.Engine, w.Objects)
	if err != nil || w.Faults == nil {
		return eng, err
	}
	return chaos.Wrap(eng, w.Faults.Profile), nil
}

// RunRecorded executes the workload on a fresh engine under the recorder
// and returns the recorded history with the run's statistics. Written
// values are globally unique, so the resulting history satisfies the
// unique-writes hypothesis of Theorem 11.
func RunRecorded(w Workload) (*history.History, RunStats, error) {
	sc, stats, err := runRecorded(w)
	if err != nil {
		return nil, RunStats{}, err
	}
	defer sc.release()
	return sc.rec.History(), stats, nil
}

// runRecorded is RunRecorded returning the scratch with the run's log in
// its recorder.
func runRecorded(w Workload) (*runScratch, RunStats, error) {
	w = w.withDefaults()
	eng, err := newEngine(w)
	if err != nil {
		return nil, RunStats{}, err
	}
	sc := getRunScratch(eng)
	rec := sc.rec
	return sc, drive(w, sc.rng, func() stm.Txn { return rec.Begin() }), nil
}

// drive runs the defaulted workload's plan, drawn from rng, on real
// goroutines, one per plan thread, each transaction retried through
// stm.AtomicallyN over the transactions begin starts. Written values are
// drawn fresh per attempt, so retries stay distinguishable. A transaction
// w.Faults kills is abandoned live, and not retried, unless its first
// attempt aborts before the kill.
func drive(w Workload, rng *rand.Rand, begin func() stm.Txn) RunStats {
	plans := planFor(w, rng)
	var commits, aborts, failed atomic.Int64
	var vals atomic.Int64 // unique written values

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < w.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kill *rand.Rand // this goroutine's kill draws, if it kills
			if f := w.Faults; f != nil && f.Kill > 0 && engines.TraitsOf(w.Engine).KillSafe {
				kill = lazyrand.New(f.Seed + int64(g)*episodeSeedStride)
			}
			for _, ops := range plans.Threads[g] {
				if kill != nil && kill.Float64() < w.Faults.Kill {
					tx := begin()
					if runOps(tx, ops[:1+kill.Intn(len(ops))], &vals) == nil {
						continue
					}
					tx.Abort()
				}
				attempts := 0
				err := stm.AtomicallyN(begin, w.MaxAttempts, func(tx stm.Txn) error {
					attempts++
					return runOps(tx, ops, &vals)
				})
				if err != nil {
					failed.Add(1)
				} else {
					commits.Add(1)
				}
				aborts.Add(int64(attempts - 1))
			}
		}(g)
	}
	wg.Wait()
	return RunStats{
		Engine:   w.Engine,
		Commits:  commits.Load(),
		Aborts:   aborts.Load(),
		Failed:   failed.Load(),
		Duration: time.Since(start),
	}
}

// runOps performs ops in tx, writing fresh values from vals, and stops at
// the first operation that fails.
func runOps(tx stm.Txn, ops stm.PlanTxn, vals *atomic.Int64) error {
	for _, op := range ops {
		if op.Read {
			if _, err := tx.Read(op.Obj); err != nil {
				return err
			}
		} else if err := tx.Write(op.Obj, vals.Add(1)); err != nil {
			return err
		}
	}
	return nil
}

// CertConfig parameterizes certification: Episodes independent small
// recorded runs (each on a fresh engine, so every value read is explained
// within its episode), each checked against the criteria.
type CertConfig struct {
	Workload
	Episodes int
	// NodeLimit bounds each exact check (default 2_000_000 nodes).
	NodeLimit int
	// MaxTxns skips episodes whose recorded history exceeds this many
	// transactions (default 56). The checker has had no transaction cap
	// since bitset rows replaced its 64-bit masks; 56 stays because it
	// keeps every certified episode within the frozen reference checker's
	// 64 transactions (the differential oracle), bounds the exact searches
	// of one farm shard, and moving it would change which episodes every
	// existing certify report skips.
	MaxTxns int
	// Interleaved runs each episode under the deterministic stepwise
	// scheduler (RunInterleaved) instead of real goroutines, making
	// certification reproducible bit-for-bit across runs and machines —
	// including single-CPU machines where real goroutines rarely
	// interleave mid-transaction.
	Interleaved bool
}

// WithDefaults fills the zero fields of the configuration with the
// defaults Certify applies, so that sharded certification (package
// checkfarm) resolves episodes identically to the sequential path.
func (cfg CertConfig) WithDefaults() CertConfig {
	if cfg.Episodes <= 0 {
		cfg.Episodes = 20
	}
	if cfg.NodeLimit <= 0 {
		cfg.NodeLimit = 2_000_000
	}
	if cfg.MaxTxns <= 0 {
		cfg.MaxTxns = 56
	}
	return cfg
}

// episodeSeedStride separates the per-episode seeds of one certification.
const episodeSeedStride = 104729

// CertStats aggregates certification outcomes per criterion.
type CertStats struct {
	Engine   string
	Episodes int
	Skipped  int
	// Degraded counts episodes that could not be certified for an
	// exceptional reason (see EpisodeReport.Degraded); their verdicts are
	// undecided, so they are also counted per criterion in Undecided.
	Degraded  int
	Accepted  map[spec.Criterion]int
	Rejected  map[spec.Criterion]int
	Undecided map[spec.Criterion]int
	// FirstReason records the first rejection reason per criterion.
	FirstReason map[spec.Criterion]string
}

// NewCertStats returns empty statistics for the given engine, ready for
// AddEpisode.
func NewCertStats(engine string) CertStats {
	return CertStats{
		Engine:      engine,
		Accepted:    make(map[spec.Criterion]int),
		Rejected:    make(map[spec.Criterion]int),
		Undecided:   make(map[spec.Criterion]int),
		FirstReason: make(map[spec.Criterion]string),
	}
}

// EpisodeReport is the outcome of a single certification episode.
type EpisodeReport struct {
	// Skipped is set when the recorded history exceeded cfg.MaxTxns and
	// was not checked.
	Skipped bool
	// Verdicts holds one verdict per requested criterion, in the order
	// asked (nil when Skipped).
	Verdicts []spec.Verdict
	// History is the recorded episode (also set when Skipped), valid until
	// Release.
	History *history.History
	// Degraded is set when the episode could not be certified for an
	// exceptional reason (under the checkfarm: the episode's shard
	// panicked past its retries); Verdicts then holds an undecided verdict
	// per criterion carrying the same reason. Degradation is always
	// reported, never a silent drop.
	Degraded string

	// stream is the pooled stream History lives in (nil for a report not
	// built by CertifyEpisodeCtx), lent to this report while stream.lent
	// equals lent.
	stream *episodeStream
	lent   uint64
}

// episodeStream is a live-indexed stream a certify episode ingests its
// run into. lent counts the times it has been handed out, so that a
// report releases only the lending it got.
type episodeStream struct {
	s    *history.Stream
	lent uint64
}

var episodeStreamPool = sync.Pool{New: func() any {
	return &episodeStream{s: history.NewStream()}
}}

// Release hands the report's history back to the pool its storage came
// from, for a later episode to reuse. It zeroes every element of
// Verdicts, which every copy of the report shares, so that a verdict read
// from any copy afterwards is the zero Verdict rather than one whose
// witness renders from a reused stream, and nils History, which other
// copies still hold but must not read. A report that is never released
// stays valid; releasing twice, or from a second copy, does nothing.
func (r *EpisodeReport) Release() {
	clear(r.Verdicts)
	r.History = nil
	if es := r.stream; es != nil && es.lent == r.lent {
		es.lent++
		episodeStreamPool.Put(es)
	}
	r.stream = nil
}

// DegradedEpisode builds the report for an episode that could not be
// certified: every requested criterion gets an undecided verdict carrying
// the reason, so aggregation (AddEpisode, the farm, the CLIs) treats the
// episode as honestly undecided rather than dropping it.
func DegradedEpisode(criteria []spec.Criterion, reason string) EpisodeReport {
	r := EpisodeReport{Degraded: reason, Verdicts: make([]spec.Verdict, len(criteria))}
	for i, c := range criteria {
		r.Verdicts[i] = spec.Verdict{Criterion: c, Undecided: true, Reason: "degraded: " + reason}
	}
	return r
}

// CertifyEpisodeCtx runs episode ep of the certification described by cfg
// and checks it against the criteria. Episodes are independent: each runs
// on a fresh engine with a seed derived only from cfg.Seed and ep, so they
// can be evaluated in any order (or concurrently) and folded with
// AddEpisode. Call cfg.WithDefaults first when bypassing Certify.
// Cancellation is threaded into the exact checks (spec.WithContext), so
// a farm deadline stops even a pathological search promptly with an
// undecided verdict. The criteria are decided together by spec.CheckAll,
// whose verdicts are spec.Check's: one accepted serialization settles the
// weaker criteria it satisfies without their searches.
//
// The run's log is ingested once, into a live-indexed stream taken from
// a pool, and the checks read that stream's index: the report's History
// is the stream's live view. A caller done with the report calls Release
// to hand the stream back; one that keeps it simply never does.
func CertifyEpisodeCtx(ctx context.Context, cfg CertConfig, ep int, criteria []spec.Criterion) (EpisodeReport, error) {
	w := cfg.Workload
	w.Seed = cfg.Workload.Seed + int64(ep)*episodeSeedStride
	sc, _, err := recordRun(w, cfg.Interleaved)
	if err != nil {
		return EpisodeReport{}, err
	}
	es := episodeStreamPool.Get().(*episodeStream)
	es.s.Truncate(0)
	err = sc.rec.AppendTo(es.s)
	sc.release()
	if err != nil {
		// The recorder only appends matched, well-ordered events.
		panic("harness: recorded history malformed: " + err.Error())
	}
	h := es.s.Live()
	r := EpisodeReport{History: h, stream: es, lent: es.lent}
	if h.NumTxns() > cfg.MaxTxns {
		r.Skipped = true
		return r, nil
	}
	opts := []spec.Option{spec.WithNodeLimit(cfg.NodeLimit)}
	if ctx != nil {
		opts = append(opts, spec.WithContext(ctx))
	}
	r.Verdicts = spec.CheckAll(h, criteria, opts...)
	return r, nil
}

// AddEpisode folds one episode's outcome, whose verdicts are in criteria's
// order, into the statistics. Folding reports in episode order reproduces
// the sequential Certify aggregation exactly (including FirstReason).
func (s *CertStats) AddEpisode(criteria []spec.Criterion, r EpisodeReport) {
	if r.Skipped {
		s.Skipped++
		return
	}
	s.Episodes++
	if r.Degraded != "" {
		s.Degraded++
	}
	for i, c := range criteria {
		v := r.Verdicts[i]
		switch {
		case v.Undecided:
			s.Undecided[c]++
		case v.OK:
			s.Accepted[c]++
		default:
			s.Rejected[c]++
			if _, ok := s.FirstReason[c]; !ok {
				s.FirstReason[c] = v.Reason
			}
		}
	}
}

// Certify runs cfg.Episodes recorded episodes and checks each against the
// given criteria.
func Certify(cfg CertConfig, criteria []spec.Criterion) (CertStats, error) {
	cfg = cfg.WithDefaults()
	stats := NewCertStats(cfg.Workload.Engine)
	for ep := 0; ep < cfg.Episodes; ep++ {
		r, err := CertifyEpisodeCtx(context.Background(), cfg, ep, criteria)
		if err != nil {
			return stats, err
		}
		stats.AddEpisode(criteria, r)
		r.Release()
	}
	return stats, nil
}

// FormatRunTable renders run statistics as an aligned text table.
func FormatRunTable(rows []RunStats) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tcommits\taborts\tabort-rate\ttxn/s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.0f\n",
			r.Engine, r.Commits, r.Aborts, r.AbortRate(), r.TxnPerSec())
	}
	_ = tw.Flush()
	return b.String()
}

// FormatCertTable renders certification statistics as an aligned text
// table, one row per criterion.
func FormatCertTable(s CertStats, criteria []spec.Criterion) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "engine %s: %d episodes (%d skipped)\n", s.Engine, s.Episodes, s.Skipped)
	fmt.Fprintln(tw, "criterion\taccepted\trejected\tundecided")
	for _, c := range criteria {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", c, s.Accepted[c], s.Rejected[c], s.Undecided[c])
	}
	_ = tw.Flush()
	return b.String()
}
