package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"text/tabwriter"

	"duopacity/internal/fpset"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/recorder"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// This file is the systematic counterpart of interleave.go: where
// RunInterleaved samples one seeded schedule of a plan, ExplorePlanCtx
// enumerates *every* schedule of the same stepper space and certifies
// each recorded history online, turning per-plan certification from
// sampled evidence into a proof over that space (for plans small enough
// to exhaust).
// The walk is a depth-first search over scheduling choices with three
// sound prunings:
//
//   - prefix-closure cuts (the paper's Corollary 2): each step's new events
//     are judged as the step returns, and the moment the monitor latches a
//     violation every extension of the prefix is known violating — the
//     whole subtree is cut after O(1) work at the causing event;
//   - sleep sets (a DPOR-style partial-order reduction): after a subtree
//     explores the schedules starting with step a, sibling subtrees need
//     not re-explore interleavings that merely reorder a with steps
//     independent of it. Independence is the engine's Commute trait
//     (engines.TraitsOf, resolved once per exploration) and deliberately
//     conservative — only steps that cannot begin or complete a
//     transaction (which would change real-time order) and cannot abort
//     are ever claimed independent, so swapping them provably preserves
//     the recorded history's verdict (engines.Commute says why each
//     engine's pairs commute);
//   - symmetry reduction (the idea of internal/enum: transaction k enters
//     only after k-1): two threads that have not started and run identical
//     programs are interchangeable, so only the lower-indexed one may take
//     its first step first.
//
// Under the stepper the whole world is single-threaded plain data — the
// engine with its transactions in flight (stm.Forkable), the virtual
// threads, the recorder's log, the prefix's class and the monitor — so the
// DFS is stateful: each decision frame forks the world once, when it
// opens, into storage the frame slot keeps across pushes. A backtrack
// restores the top frame's fork in place — the engine and its
// transactions overwritten from the copy, the recorder truncated, the
// monitor rewound (spec.Session.Rewind, the paper's Lemma 1) to the fork's
// length when it is ahead of it — and steps only the new suffix. The
// restored prefix is the one the frame recorded, by construction, so
// nothing is re-executed or compared. The engine is built once per
// exploration, for the root.
//
// Du-opacity reads a history only through each transaction's own events,
// the real-time order and, per read response, the set of transactions
// whose tryC was already invoked (DESIGN.md, "Prefix classes"), and the
// explored schedules fall into far fewer such classes than there are
// schedules. So each new event is first looked up by its prefix's class
// in the set of classes the monitor has already judged du-opaque: a hit is
// answered OK without touching the monitor, and only a miss makes the
// monitor catch up over the events it skipped and decide. Only OK
// verdicts are memoised, so every violation, latch index, reason and
// undecided check still comes from the monitor.
//
// The quantifier is the stepper's schedule space — the engine's Blocking
// trait plus the stepper's abort-backoff discipline (an aborted thread
// retries only after some other thread t-completes; see
// stepper.resolveAbort), exactly the space RunInterleaved samples. Real
// goroutine runs can additionally interleave an immediate retry's events
// before any t-completion; those schedules are outside the space and a
// ProvenDUOpaque verdict does not speak to them (ROADMAP: lift the
// backoff gate to enumerate free retry placements).

// ExploreOutcome is the per-plan verdict of an exploration.
type ExploreOutcome uint8

const (
	// ProvenDUOpaque: every schedule of the stepper's space — the
	// engine's Blocking trait plus the abort-backoff discipline, the
	// same space RunInterleaved samples — was enumerated (directly or via
	// a sound pruning) and every recorded history satisfies the
	// configured criterion: for the default criterion, the plan is proven
	// du-opaque on this engine over that space.
	ProvenDUOpaque ExploreOutcome = iota + 1
	// ViolationFound: some schedule's recorded history violates the
	// criterion; the first one found is pinned in ExploreReport.Violation
	// with its causing schedule and latching event.
	ViolationFound
	// BudgetExhausted: the schedule budget (or a node limit inside a
	// check) ran out before the space was exhausted and no violation was
	// found; the report's counters describe the explored frontier.
	BudgetExhausted
)

// String names the outcome.
func (o ExploreOutcome) String() string {
	switch o {
	case ProvenDUOpaque:
		return "proven"
	case ViolationFound:
		return "violation"
	case BudgetExhausted:
		return "budget-exhausted"
	default:
		return fmt.Sprintf("ExploreOutcome(%d)", uint8(o))
	}
}

// ExploreConfig parameterizes an exploration.
type ExploreConfig struct {
	// Criterion is the monitored criterion: spec.DUOpacity (default) or
	// spec.Opacity. Both are prefix-closed, which is what makes the
	// mid-schedule subtree cut sound (Corollary 2 / Definition 5).
	Criterion spec.Criterion
	// MaxAttempts bounds retries per transaction, as Workload.MaxAttempts
	// does for the sampler (default 2: exploration multiplies schedules,
	// so retry tails are kept short; raise it to match a sampled workload
	// exactly).
	MaxAttempts int
	// MaxSchedules bounds ExploreReport.Replays, the walks down the
	// schedule tree however each ended: completed, prefix-cut, sleep-cut
	// or step-truncated (default 1 << 17). Exhausting it with space left
	// yields BudgetExhausted unless a violation was already found.
	MaxSchedules int
	// NodeLimit bounds each monitor check (default 2_000_000, as
	// certification). An undecided check makes the outcome
	// BudgetExhausted: the proof obligation was not discharged.
	NodeLimit int
	// StopAtFirstViolation ends the exploration at the first violating
	// schedule instead of surveying the rest of the space (refutation
	// needs one witness; proving still requires exhaustion).
	StopAtFirstViolation bool

	// maxSteps bounds a single schedule's length (a generous multiple of
	// the plan size; exceeding it counts as budget exhaustion). Only this
	// package's tests set it.
	maxSteps int

	// off turns prunings off. Only this package's tests set it: the
	// naive enumeration it leaves behind is the reference the
	// pruning-soundness tests and EXPERIMENTS.md numbers compare against.
	// Being unexported, it never travels in a checkfarm.JobSpec.
	off pruning

	// onSchedule, when set, observes each schedule that runs to
	// completion: the thread choice at each step, the recorded history,
	// and its verdict. The prefix cut ends a violating schedule at its
	// latching step — even when that step happens to be its last — so it
	// is counted in PrefixCut, not delivered here. The verdict's witness
	// is the exploration's one monitor's: ask for v.Witness() during the
	// callback, not after it returns. Only this package's tests set it.
	onSchedule func(schedule []int, h *history.History, v spec.Verdict)
}

// pruning is a set of the explorer's sound prunings.
type pruning uint8

const (
	sleepSets pruning = 1 << iota // sleep sets (partial-order reduction)
	symmetry                      // unstarted threads running one program
	prefixCut                     // the Corollary 2 subtree cut

	// naive is every pruning: with all of them off the explorer
	// enumerates the raw stepper schedule space and runs every schedule
	// to completion, so onSchedule sees every history of that space.
	naive = sleepSets | symmetry | prefixCut
)

// prunes reports whether the exploration applies pruning p.
func (cfg ExploreConfig) prunes(p pruning) bool { return cfg.off&p == 0 }

func (cfg ExploreConfig) withDefaults(p stm.Plan) ExploreConfig {
	if cfg.Criterion == 0 {
		cfg.Criterion = spec.DUOpacity
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2
	}
	if cfg.MaxSchedules <= 0 {
		cfg.MaxSchedules = 1 << 17
	}
	if cfg.maxSteps <= 0 {
		// Every retry replays at most one transaction's steps, and each
		// abort forces another thread's t-completion first, so schedules
		// are far shorter than this in practice.
		cfg.maxSteps = (cfg.MaxAttempts+1)*p.Steps() + 64
	}
	if cfg.NodeLimit <= 0 {
		cfg.NodeLimit = 2_000_000
	}
	return cfg
}

// ExploreViolation pins one violating schedule. In JSON its history is
// histio text.
type ExploreViolation struct {
	// Schedule is the thread stepped at each point, replayable through the
	// deterministic stepper.
	Schedule []int
	// History is the recorded history at the moment the monitor latched
	// (the violating prefix; prefix closure makes every extension
	// violating too).
	History *history.History
	// Verdict is the monitor's latched verdict, with the refutation
	// reason.
	Verdict spec.Verdict
	// At is the index of the event that latched the violation.
	At int
}

// violationJSON is ExploreViolation's JSON form.
type violationJSON struct {
	Schedule []int        `json:"schedule"`
	History  string       `json:"history"`
	Verdict  spec.Verdict `json:"verdict"`
	At       int          `json:"at"`
}

// MarshalJSON encodes the violation with its history in histio text.
func (v ExploreViolation) MarshalJSON() ([]byte, error) {
	return json.Marshal(violationJSON{v.Schedule, histio.FormatString(v.History), v.Verdict, v.At})
}

// UnmarshalJSON decodes MarshalJSON's form; a history that does not parse
// is an error.
func (v *ExploreViolation) UnmarshalJSON(data []byte) error {
	var w violationJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h, err := histio.ParseString(w.History)
	if err != nil {
		return fmt.Errorf("harness: violation history: %w", err)
	}
	*v = ExploreViolation{Schedule: w.Schedule, History: h, Verdict: w.Verdict, At: w.At}
	return nil
}

// ExploreReport is the result of exploring one plan on one engine. In
// JSON it carries its outcome and counters, not the engine, criterion and
// plan, which the caller named (a checkfarm fold restores them from the
// job).
type ExploreReport struct {
	Engine    string         `json:"-"`
	Criterion spec.Criterion `json:"-"`
	Plan      stm.Plan       `json:"-"`
	Outcome   ExploreOutcome `json:"outcome"`

	// Schedules counts schedules run to completion; PrefixCut counts
	// subtrees cut mid-schedule by the latched monitor (each cut stands
	// for every schedule extending the violating prefix).
	Schedules int `json:"schedules"`
	PrefixCut int `json:"prefix_cut"`
	// Violations counts violating schedules/subtrees found; Violation
	// pins the first.
	Violations int               `json:"violations"`
	Violation  *ExploreViolation `json:"violation,omitempty"`
	// SleepPruned and SymmetryPruned count scheduling choices skipped by
	// the respective prunings (each skip cuts a whole subtree).
	SleepPruned    int `json:"sleep_pruned"`
	SymmetryPruned int `json:"symmetry_pruned"`
	// Steps is the total length of the walked schedules, in t-operation
	// steps. Replays counts every walk down the tree regardless of how it
	// ended: completed schedules, prefix-cut and sleep-cut paths, and
	// step-budget truncations (it is not derivable from the other
	// counters — SleepPruned also counts sibling skips that replay
	// nothing).
	Steps   int64 `json:"steps"`
	Replays int   `json:"replays"`
	// StepsExecuted counts the steps actually run: a replay restores the
	// fork of its decision frame and runs only the new suffix, so Steps −
	// StepsExecuted is what forking saved. Forks counts the forks taken,
	// one per decision frame opened.
	StepsExecuted int64 `json:"steps_executed"`
	Forks         int   `json:"forks"`
	// SharedEvents counts the events of the restored prefixes, which a
	// replay neither records nor judges again: it is what forking and
	// rewinding instead of rebuilding saved. The other events of the walked
	// schedules are the replays' own; ClassHits counts those answered OK
	// from the set of prefix classes the monitor already judged du-opaque,
	// without touching the monitor (always 0 for opacity, which is not
	// memoised). MonitorEvents counts the events appended to the monitor:
	// the replays' own events that missed the set, plus the earlier hits it
	// catches up over before deciding a miss.
	MonitorEvents int64 `json:"monitor_events"`
	SharedEvents  int64 `json:"shared_events"`
	ClassHits     int64 `json:"class_hits"`
	// MaxFrontier is the deepest decision stack reached — with
	// BudgetExhausted, how deep the explored frontier got.
	MaxFrontier int `json:"max_frontier"`
	// Undecided counts completed schedules whose check hit the node
	// limit.
	Undecided int `json:"undecided"`
	// DegradedReason is set when the exploration did not run to its
	// configured budget for an exceptional reason — the context was
	// cancelled, a monitor rejected a recorded event, or (under the
	// checkfarm) the exploration shard panicked past its retries. The Outcome is BudgetExhausted in that case: degraded
	// explorations are honest undecided results, never silent drops.
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// ExplorePlanCtx enumerates every schedule of the deterministic stepper's
// space for the plan — the engine's Blocking trait plus the stepper's
// abort-backoff discipline, exactly the space RunInterleaved samples —
// certifies each recorded history online against cfg.Criterion, and
// aggregates a per-plan verdict: ProvenDUOpaque when the space was
// exhausted violation-free, ViolationFound with the pinned causing
// schedule, or BudgetExhausted with frontier statistics. See the file
// comment for what the quantifier does and does not cover. The context is
// checked between replays and propagated into every monitor check
// (spec.WithContext), so a farm deadline stops even a pathological
// exploration promptly. Cancellation surfaces as Outcome BudgetExhausted
// with DegradedReason set — an honest undecided result.
func ExplorePlanCtx(ctx context.Context, engine string, p stm.Plan, cfg ExploreConfig) (ExploreReport, error) {
	if err := p.Validate(); err != nil {
		return ExploreReport{}, err
	}
	if len(p.Threads) > 64 {
		return ExploreReport{}, fmt.Errorf("harness: explore supports at most 64 threads, plan has %d", len(p.Threads))
	}
	eng, err := engines.New(engine, p.Objects)
	if err != nil {
		return ExploreReport{}, err
	}
	return explore(ctx, engine, eng, p, cfg)
}

// CheckExploreCriterion reports whether the explorer can decide c: only
// the prefix-closed monitorable criteria (du-opacity, opacity) let a
// violation latched mid-schedule refute the whole subtree.
func CheckExploreCriterion(c spec.Criterion) error {
	switch c {
	case spec.DUOpacity, spec.Opacity:
		return nil
	}
	return fmt.Errorf("harness: explore requires a prefix-closed monitorable criterion (du-opacity or opacity), got %v", c)
}

// explore is ExplorePlanCtx on an engine already built: the root of the
// world every decision frame forks.
func explore(ctx context.Context, engine string, eng stm.Engine, p stm.Plan, cfg ExploreConfig) (ExploreReport, error) {
	root, ok := eng.(stm.Forkable)
	if !ok {
		return ExploreReport{}, fmt.Errorf("harness: explore needs a forkable engine, %s is not", engine)
	}
	cfg = cfg.withDefaults(p)
	if err := CheckExploreCriterion(cfg.Criterion); err != nil {
		return ExploreReport{}, err
	}
	rec := recorder.New(root)
	n := len(p.Threads)
	tr := engines.TraitsOf(engine)
	e := &explorer{
		commute:  tr.Commute,
		cfg:      cfg,
		ctx:      ctx,
		symClass: symClasses(p.Threads),
		rep:      ExploreReport{Engine: engine, Criterion: cfg.Criterion, Plan: p},
		eng:      root,
		rec:      rec,
		st:       stepper{rec: rec, threads: threadsFor(p), blocking: tr.Blocking, maxAttempts: cfg.MaxAttempts},
		in:       make([]stm.Txn, n),
		out:      make([]stm.Txn, n),
		free:     make([]stm.Txn, 0, n),
	}
	if cfg.Criterion == spec.DUOpacity {
		e.judged = takeJudged()
		defer putJudged(e.judged)
	}
	e.newMonitor()
	e.run()
	return e.rep, nil
}

// judgedSets keeps the class sets of finished explorations, at most one
// per P, for the next explorations to reset and reuse. Unlike a sync.Pool
// it is not emptied by garbage collection: a set grows with its
// exploration's class count (24 KB for the 800-odd classes of a
// 2 048-schedule plan, 36 KB allocated on the way), so a farm worker
// exploring plan after plan should build it once, not again after every
// collection.
var judgedSets = make(chan *fpset.Set, runtime.GOMAXPROCS(0))

func takeJudged() *fpset.Set {
	var s *fpset.Set
	select {
	case s = <-judgedSets:
	default:
		s = new(fpset.Set)
	}
	s.Reset()
	return s
}

func putJudged(s *fpset.Set) {
	select {
	case judgedSets <- s:
	default:
	}
}

// exFrame is one decision point of the DFS: the scheduling choices that
// were admissible there, the one currently being explored, the sleep
// machinery, and the world every branch starts from.
type exFrame struct {
	choices []int // admissible thread ids, post-symmetry-filter
	next    int   // index into choices of the branch being explored
	// base is the sleep set inherited when the frame was created; explored
	// accumulates the branches already fully explored here, which sleep
	// for the remaining siblings (the classic sleep-set discipline).
	base     uint64
	explored uint64
	world    world
}

// world is a fork of everything a step changes, taken at a decision point
// before its branch is stepped. Its storage belongs to the frame slot and
// is reused by every frame pushed there.
type world struct {
	eng     stm.Forkable    // copy of the engine
	txns    []stm.Txn       // per thread: copy of its transaction in flight, in eng
	ids     []history.TxnID // per thread: that transaction's identifier, 0 when none
	threads []vthread       // per thread: its state, tx cleared
	vals    int64           // the stepper's counters
	commits int64
	aborts  int64
	failed  int64
	lastID  history.TxnID // the recorder's last identifier
	events  int           // events recorded
	depth   int           // schedule length
	class   prefixClass
}

// prefixClass is the hash of a prefix's class: everything of the prefix
// that du-opacity reads (DESIGN.md, "Prefix classes"). Each transaction
// keeps a running hash of its own events, seeded at its first event with
// the set of transactions already t-complete (its real-time predecessors)
// and folded, at each of its read responses, with the set of transactions
// whose tryC was already invoked; the class is the XOR of the running
// hashes, blind to how the transactions' events interleave beyond that.
// The two sets are kept as XORs of per-transaction keys, so each event
// updates the class in O(1) from the class, the sets and its own
// transaction's running hash alone.
type prefixClass struct {
	hash  uint64
	tried uint64   // transactions whose tryC was invoked
	done  uint64   // t-complete transactions
	txns  []uint64 // running hash per transaction identifier, 0 before its first event
}

// add extends the prefix by ev.
func (c *prefixClass) add(ev history.Event) {
	id := int(ev.Txn)
	for len(c.txns) <= id {
		c.txns = append(c.txns, 0)
	}
	old := c.txns[id]
	r := old
	if r == 0 {
		r = fpset.Mix(txnKey(id) ^ c.done)
	}
	r = fpset.Mix(r ^ eventKey(ev))
	if ev.Kind == history.Res && ev.Op == history.OpRead && ev.Out == history.OutOK {
		r = fpset.Mix(r ^ c.tried)
	}
	c.txns[id] = r
	c.hash ^= old ^ r
	switch {
	case ev.Kind == history.Inv && ev.Op == history.OpTryCommit:
		c.tried ^= txnKey(id)
	case ev.Kind == history.Res && ev.Out != history.OutOK:
		c.done ^= txnKey(id)
	}
}

// copyFrom makes c a copy of o, reusing c's storage.
func (c *prefixClass) copyFrom(o *prefixClass) {
	txns := append(c.txns[:0], o.txns...)
	*c = *o
	c.txns = txns
}

// txnKey is transaction id's key in the sets.
func txnKey(id int) uint64 { return fpset.Mix(0x5A5A5A5A00000000 | uint64(id)) }

// eventKey hashes everything of ev but its transaction.
func eventKey(ev history.Event) uint64 {
	x := uint64(ev.Kind) | uint64(ev.Op)<<8 | uint64(ev.Out)<<16 | uint64(len(ev.Obj))<<24
	for i := 0; i < len(ev.Obj); i++ {
		x = fpset.Mix(x ^ uint64(ev.Obj[i])<<32)
	}
	return fpset.Mix(fpset.Mix(x^uint64(ev.Arg)) ^ uint64(ev.Val))
}

// pathEnd describes how one replay ended.
type pathEnd uint8

const (
	endComplete  pathEnd = iota // all threads done: a full schedule
	endPrefixCut                // monitor latched: subtree cut (Corollary 2)
	endSleepCut                 // only sleeping continuations: subtree cut
	endSteps                    // step bound exceeded (budget)
)

type explorer struct {
	commute  engines.Commute // the engine's, resolved once per run
	cfg      ExploreConfig
	ctx      context.Context
	symClass []int // per-thread program class, see symClasses
	rep      ExploreReport

	// One engine, one recorder, one stepper and one monitor serve every
	// replay: restore overwrites the first three from a frame's fork and
	// rewinds the monitor when it is ahead of the fork.
	eng stm.Forkable
	rec *recorder.Recorder
	st  stepper
	m   *spec.Monitor
	// log is the current schedule's events, read from the recorder as each
	// step returns; the monitor holds a prefix of it. latchAt is the index
	// of the event at which the monitor latched its violation, -1 while it
	// has none — a restore keeps it when the restored prefix contains that
	// event. fault is the current replay's first monitor failure.
	log     []history.Event
	latchAt int
	fault   string
	// class is the current prefix's class; judged holds the classes the
	// monitor judged du-opaque in this exploration, nil for opacity.
	class  prefixClass
	judged *fpset.Set

	stack []exFrame
	sched []int // thread stepped at each point of the current replay
	buf   []int // runnable scratch
	cbuf  []int // symmetry-filter scratch
	// Per-thread fork scratch: the transactions handed to Fork and their
	// copies, and the engine transactions a restore copies into.
	in, out, free []stm.Txn

	budget bool // a budget bound was hit (schedules or steps)
}

// newMonitor gives the exploration its monitor: once per exploration, and
// again only after a monitor faulted (the feed it interrupted is not to be
// trusted). The next miss feeds the new monitor the prefix it lacks.
func (e *explorer) newMonitor() {
	mopts := []spec.Option{spec.WithNodeLimit(e.cfg.NodeLimit)}
	if e.ctx != nil {
		mopts = append(mopts, spec.WithContext(e.ctx))
	}
	m, err := spec.NewMonitor(e.cfg.Criterion, mopts...)
	if err != nil {
		panic("harness: explore monitor: " + err.Error()) // criterion validated by ExplorePlanCtx
	}
	e.m, e.latchAt = m, -1
}

// latched reports whether the current schedule's events include the one
// that latched the monitor.
func (e *explorer) latched() bool { return e.latchAt >= 0 }

// observe reads the events the last step recorded and judges each one's
// prefix: OK from the class set when its class is there, otherwise by the
// monitor, whose OK verdicts on du-opacity enter the set. Once the monitor
// has latched, every later prefix violates (Corollary 2) and goes to it
// directly.
func (e *explorer) observe() {
	from := len(e.log)
	e.log = e.rec.AppendEvents(e.log, from)
	for i := from; i < len(e.log); i++ {
		e.class.add(e.log[i])
		key := e.class.hash
		if classKeyHook != nil {
			key = classKeyHook(key)
		}
		if e.judged == nil || e.latched() {
			e.catchUp(i + 1)
		} else if e.judged.Has(key) {
			e.rep.ClassHits++
			if classOracle != nil {
				classOracle(e, i)
			}
		} else if v := e.catchUp(i + 1); v.OK {
			e.judged.Insert(key)
		}
		if e.fault != "" {
			return
		}
	}
}

// catchUp feeds the monitor the logged events it lacks before n and
// returns its verdict on the first n. A monitor that rejects a recorded
// event or panics becomes the replay's fault and is replaced; the
// verdict returned is then undecided.
func (e *explorer) catchUp(n int) spec.Verdict {
	fed, fault := feedMonitor(e.m, e.log, n, &e.latchAt)
	e.rep.MonitorEvents += int64(fed)
	if fault != "" {
		e.fault = fault
		e.newMonitor()
		return spec.Verdict{Criterion: e.cfg.Criterion, Undecided: true, Reason: "degraded: " + fault}
	}
	return e.m.Verdict()
}

// fork takes the world at a decision point into w, reusing w's storage.
func (e *explorer) fork(w *world) {
	st := &e.st
	if w.threads == nil {
		n := len(st.threads)
		w.txns, w.ids, w.threads = make([]stm.Txn, n), make([]history.TxnID, n), make([]vthread, n)
	}
	for i, t := range st.threads {
		e.in[i], w.ids[i] = nil, 0
		if t.tx != nil {
			e.in[i], w.ids[i] = t.tx.Inner(), t.tx.ID()
		}
		w.threads[i] = *t
		w.threads[i].tx = nil
	}
	// The copies are never stepped, so none of them ever reaches a pool
	// and each stays a safe copy target for the next fork into this slot.
	w.eng = e.eng.Fork(w.eng, e.in, w.txns).(stm.Forkable)
	w.vals, w.commits, w.aborts, w.failed = st.vals, st.commits, st.aborts, st.failed
	w.lastID, w.events, w.depth = e.rec.LastID(), len(e.log), len(e.sched)
	w.class.copyFrom(&e.class)
	e.rep.Forks++
}

// restore returns the world to the fork w: the engine and the threads'
// transactions are overwritten in place, the recorder and the log
// truncated, the monitor rewound to the fork's events if it holds more of
// them. The restored prefix counts as steps walked and as shared events.
func (e *explorer) restore(w *world) {
	st := &e.st
	// Copy targets: a transaction still in flight at the end of the last
	// replay has not ended, so it cannot be in the engine's pool (the pool
	// rule of stm.Forkable); Fork draws any further ones from the pool.
	// Its recorded wrapper is not needed past this point: every thread's
	// is replaced below.
	free := e.free[:0]
	for _, t := range st.threads {
		if t.tx != nil {
			free = append(free, t.tx.Inner())
		}
	}
	for i := range st.threads {
		e.in[i], e.out[i] = nil, nil
		if w.ids[i] == 0 {
			continue
		}
		e.in[i] = w.txns[i]
		if k := len(free) - 1; k >= 0 {
			e.out[i], free = free[k], free[:k]
		}
	}
	w.eng.Fork(e.eng, e.in, e.out)
	for i, t := range st.threads {
		*t = w.threads[i]
		if w.ids[i] != 0 {
			t.tx = e.rec.Resume(&t.own, w.ids[i], e.out[i])
		}
	}
	st.vals, st.commits, st.aborts, st.failed = w.vals, w.commits, w.aborts, w.failed
	e.rec.Restore(e.eng, w.events, w.lastID)
	e.sched = e.sched[:w.depth]
	e.rep.Steps += int64(w.depth)

	e.log = e.log[:w.events]
	e.class.copyFrom(&w.class)
	e.rep.SharedEvents += int64(w.events)

	e.fault = ""
	if e.latchAt >= w.events {
		e.latchAt = -1
	}
	if e.m.Len() > w.events {
		if err := e.m.Rewind(w.events); err != nil {
			e.fault = "monitor rewind: " + err.Error() // unreachable: the monitor never retires
		}
	}
}

// noteDegraded records the first exceptional-degradation reason and marks
// the exploration budget-bound, so the outcome honestly reports that the
// space was not exhausted.
func (e *explorer) noteDegraded(reason string) {
	e.budget = true
	if e.rep.DegradedReason == "" {
		e.rep.DegradedReason = reason
	}
}

func (e *explorer) run() {
	for {
		if e.ctx != nil && e.ctx.Err() != nil {
			e.noteDegraded("context cancelled: " + e.ctx.Err().Error())
			break
		}
		end := e.replay()
		if replayOracle != nil {
			replayOracle(e)
		}
		e.rep.Replays++
		if len(e.stack) > e.rep.MaxFrontier {
			e.rep.MaxFrontier = len(e.stack)
		}
		if end == endSteps {
			e.budget = true
		}
		if e.cfg.StopAtFirstViolation && e.rep.Violations > 0 {
			break
		}
		if e.rep.Replays >= e.cfg.MaxSchedules {
			// Only a budget problem if the space was not exhausted below.
			// The probe may skip sleeping siblings while advancing; those
			// subtrees are never walked, so keep them out of the report's
			// frontier statistics.
			saved := e.rep.SleepPruned
			if e.backtrack() {
				e.budget = true
			}
			e.rep.SleepPruned = saved
			break
		}
		if !e.backtrack() {
			break // space exhausted
		}
	}
	switch {
	case e.rep.Violations > 0:
		e.rep.Outcome = ViolationFound
	case e.budget || e.rep.Undecided > 0:
		e.rep.Outcome = BudgetExhausted
	default:
		e.rep.Outcome = ProvenDUOpaque
	}
}

// backtrack retires the deepest frame's current branch and advances to the
// next sibling that is neither explored nor sleeping, popping exhausted
// frames. It reports false when the whole space is exhausted.
func (e *explorer) backtrack() bool {
	for len(e.stack) > 0 {
		f := &e.stack[len(e.stack)-1]
		f.explored |= 1 << uint(f.choices[f.next])
		f.next++
		for f.next < len(f.choices) {
			t := f.choices[f.next]
			if e.cfg.prunes(sleepSets) && f.base&(1<<uint(t)) != 0 {
				// A sleeping sibling: every schedule through it reorders
				// only steps independent of an already-explored subtree.
				e.rep.SleepPruned++
				f.explored |= 1 << uint(t)
				f.next++
				continue
			}
			return true
		}
		e.stack = e.stack[:len(e.stack)-1]
	}
	return false
}

// replay restores the world of the deepest decision frame — the root
// world on the first replay, which has none — takes the frame's current
// branch, then extends the path depth-first (first unslept branch at every
// new decision point) until the schedule completes, the monitor latches,
// or a pruning cuts it.
func (e *explorer) replay() pathEnd {
	frameIdx := 0
	if n := len(e.stack); n > 0 {
		frameIdx = n - 1
		e.restore(&e.stack[frameIdx].world)
		if e.fault != "" {
			e.noteDegraded(e.fault)
			return endSteps
		}
	}
	st := &e.st
	var sleep uint64 // the running sleep set along the path
	for {
		r := st.runnable(e.buf)
		e.buf = r[:0]
		if len(r) == 0 {
			if e.cfg.onSchedule != nil {
				// The callback gets the monitor's own verdict and witness.
				if e.catchUp(len(e.log)); e.fault != "" {
					e.noteDegraded(e.fault)
					return endSteps
				}
			}
			e.finishSchedule()
			return endComplete
		}
		if len(e.sched) >= e.cfg.maxSteps {
			// A latched violation survives the truncation: the criterion is
			// prefix-closed, so the violating prefix refutes the plan no
			// matter how the schedule would have continued (reachable only
			// with the prefix cut off — the cut returns at the latching step).
			if e.latched() {
				e.recordViolation()
			}
			return endSteps
		}
		replaying := frameIdx < len(e.stack)
		choices := e.symmetryFilter(st, r, !replaying)
		var taken int
		switch {
		case replaying && len(choices) > 1:
			// The restored decision point: take its current branch. The
			// world is the one the frame forked, so the recomputed choices
			// must match the stored ones.
			f := &e.stack[frameIdx]
			if len(f.choices) != len(choices) {
				panic("harness: explore replay diverged (nondeterministic engine?)")
			}
			taken = f.choices[f.next]
			sleep = e.childSleep(st, f.base|f.explored, taken)
			frameIdx++
		case len(choices) == 1:
			// Forced step: no decision, but the sleep set still evolves —
			// and a forced step into the sleep set means every completion
			// of this path was already covered from a sibling.
			taken = choices[0]
			if e.cfg.prunes(sleepSets) && sleep&(1<<uint(taken)) != 0 {
				e.rep.SleepPruned++
				return endSleepCut
			}
			sleep = e.childSleep(st, sleep, taken)
		default:
			// A fresh decision point: open a frame, skipping branches that
			// start inside the inherited sleep set.
			f := e.pushFrame(choices, sleep)
			for f.next < len(f.choices) && e.cfg.prunes(sleepSets) && f.base&(1<<uint(f.choices[f.next])) != 0 {
				e.rep.SleepPruned++
				f.explored |= 1 << uint(f.choices[f.next])
				f.next++
			}
			if f.next == len(f.choices) {
				e.stack = e.stack[:len(e.stack)-1]
				return endSleepCut
			}
			e.fork(&f.world)
			taken = f.choices[f.next]
			sleep = e.childSleep(st, f.base|f.explored, taken)
			frameIdx++
		}
		e.sched = append(e.sched, taken)
		st.step(st.threads[taken])
		e.rep.Steps++
		e.rep.StepsExecuted++
		if e.observe(); e.fault != "" {
			e.noteDegraded(e.fault)
			return endSteps
		}
		if e.latched() && e.cfg.prunes(prefixCut) {
			// Corollary 2: the prefix is not du-opaque (resp. opaque), so
			// no extension is — cut the whole subtree at the causing
			// event.
			e.recordViolation()
			e.rep.PrefixCut++
			return endPrefixCut
		}
	}
}

// pushFrame opens a decision point, taking over the choices and world
// storage of a frame popped earlier.
func (e *explorer) pushFrame(choices []int, sleep uint64) *exFrame {
	n := len(e.stack)
	if n == cap(e.stack) {
		e.stack = append(e.stack, exFrame{})
	}
	e.stack = e.stack[:n+1]
	f := &e.stack[n]
	*f = exFrame{choices: append(f.choices[:0], choices...), base: sleep, world: f.world}
	return f
}

// The test hooks are nil outside tests (explore_test.go), which set
// exploreOracle to hold the rewound monitor against a fresh one wherever a
// verdict is read, replayOracle to hold the forked world against a replay
// from scratch wherever a walk ends, classOracle to hold each event
// answered from the class set (its index in the log) against the monitor,
// classKeyHook to degrade the class key, and feedHook to fail the monitor
// feed (feedMonitor, which RunMonitored shares).
var (
	exploreOracle func(e *explorer, v spec.Verdict)
	replayOracle  func(e *explorer)
	classOracle   func(e *explorer, at int)
	classKeyHook  func(hash uint64) uint64
	feedHook      func(ev history.Event)
)

// verdict returns the verdict on the current schedule's events: the
// monitor's when it holds them all, otherwise OK — the last of them was
// answered from the class set.
func (e *explorer) verdict() spec.Verdict {
	v := spec.Verdict{Criterion: e.cfg.Criterion, OK: true}
	if e.m.Len() == len(e.log) {
		v = e.m.Verdict()
	}
	if exploreOracle != nil {
		exploreOracle(e, v)
	}
	return v
}

// finishSchedule accounts a completed schedule.
func (e *explorer) finishSchedule() {
	e.rep.Schedules++
	v := e.verdict()
	switch {
	case v.Undecided:
		e.rep.Undecided++
		e.budget = true
	case !v.OK:
		// Reachable only with the prefix cut off (the naive reference
		// mode): with the cut enabled a latch — even on the schedule's
		// final step — returns endPrefixCut before finishSchedule runs.
		e.recordViolation()
	}
	if e.cfg.onSchedule != nil {
		e.cfg.onSchedule(append([]int(nil), e.sched...), e.rec.History(), v)
	}
}

func (e *explorer) recordViolation() {
	e.rep.Violations++
	v := e.verdict() // a rejection: no witness to outlive the monitor's next move
	if e.rep.Violation == nil {
		e.rep.Violation = &ExploreViolation{
			Schedule: append([]int(nil), e.sched...),
			History:  e.rec.History(),
			Verdict:  v,
			At:       e.latchAt,
		}
	}
}

// symmetryFilter drops choices that are symmetric images of lower-indexed
// ones: a thread that has not yet started and runs the same program as an
// earlier also-unstarted runnable thread may not move first — exchanging
// the two threads maps the dropped subtree onto the kept one, and every
// implemented criterion is invariant under renaming transactions (the
// symmetry-reduction idea of internal/enum). count guards the statistics
// against double-counting during replays.
func (e *explorer) symmetryFilter(st *stepper, r []int, count bool) []int {
	if !e.cfg.prunes(symmetry) {
		return r
	}
	out := e.cbuf[:0]
	for _, j := range r {
		drop := false
		if fresh(st.threads[j]) {
			for _, i := range r {
				if i >= j {
					break
				}
				if fresh(st.threads[i]) && e.symClass[i] == e.symClass[j] {
					drop = true
					break
				}
			}
		}
		if drop {
			if count {
				e.rep.SymmetryPruned++
			}
			continue
		}
		out = append(out, j)
	}
	e.cbuf = out[:0]
	return out
}

// fresh reports whether the thread has not performed any step yet.
func fresh(t *vthread) bool {
	return !t.done && t.tx == nil && t.txnIdx == 0 && t.attempts == 0
}

// symClasses assigns each thread the index of the lowest-indexed thread
// running an identical program — computed once per exploration, so the
// per-decision-point symmetry filter is integer comparisons instead of
// deep program comparisons at the first steps of every replay.
func symClasses(threads [][]stm.PlanTxn) []int {
	cls := make([]int, len(threads))
	for j := range threads {
		cls[j] = j
		for i := 0; i < j; i++ {
			if cls[i] == i && samePlan(threads[i], threads[j]) {
				cls[j] = i
				break
			}
		}
	}
	return cls
}

func samePlan(a, b []stm.PlanTxn) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// childSleep filters the state's sleep set down to the threads whose next
// step is independent of the step being taken — the sleep set the child
// state inherits.
func (e *explorer) childSleep(st *stepper, stateSleep uint64, taken int) uint64 {
	if !e.cfg.prunes(sleepSets) || stateSleep == 0 {
		return 0
	}
	td, ok := nextStepDesc(st.threads[taken], taken)
	if !ok {
		return 0
	}
	var child uint64
	for m := stateSleep; m != 0; m &= m - 1 {
		zi := bits.TrailingZeros64(m)
		zd, ok := nextStepDesc(st.threads[zi], zi)
		if ok && independentSteps(e.commute, zd, td) {
			child |= 1 << uint(zi)
		}
	}
	return child
}

// stepDesc describes a thread's next step for the independence relation.
type stepDesc struct {
	thread int
	begin  bool // the step begins an attempt (first event of a transaction)
	commit bool // the step is the tryC
	read   bool
	obj    int
}

// nextStepDesc derives the thread's next step from its state and plan; ok
// is false for finished threads.
func nextStepDesc(t *vthread, idx int) (stepDesc, bool) {
	if t.done {
		return stepDesc{}, false
	}
	d := stepDesc{thread: idx}
	next := t.opIdx
	if t.tx == nil {
		d.begin = true
		next = 0
	}
	ops := t.plan[t.txnIdx]
	if next >= len(ops) {
		d.commit = true
		return d, true
	}
	d.read = ops[next].Read
	d.obj = ops[next].Obj
	return d, true
}

// independentSteps is the sleep sets' independence relation: the
// engine's Commute trait (engines.Commute says why each engine's pairs
// commute) over two mid-transaction steps of different threads. Steps
// that begin or complete a transaction are never independent: swapping
// them would change real-time order. Every other order-sensitive input to
// the implemented criteria — the position of read responses relative to
// tryC invocations — stays put in a swap of two plain operation steps, so
// the recorded history keeps its verdict.
func independentSteps(c engines.Commute, a, b stepDesc) bool {
	if a.thread == b.thread || a.begin || b.begin || a.commit || b.commit {
		return false
	}
	switch c {
	case engines.BufferedWrites:
		return !a.read && !b.read
	case engines.UnvalidatedReads:
		return a.read && b.read || a.read != b.read && a.obj != b.obj
	default:
		return false
	}
}

// FormatExploreTable renders exploration reports as an aligned table, one
// row per report, with the pinned violation (if any) below.
func FormatExploreTable(reports []ExploreReport) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tplan(thr/txn/op)\tcriterion\toutcome\tschedules\tcut\tsleep\tsym\tsteps")
	for _, r := range reports {
		fmt.Fprintf(tw, "%s\t%d/%d/%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Engine, len(r.Plan.Threads), r.Plan.NumTxns(), r.Plan.NumOps(),
			r.Criterion, r.Outcome, r.Schedules, r.PrefixCut, r.SleepPruned, r.SymmetryPruned, r.Steps)
	}
	_ = tw.Flush()
	for _, r := range reports {
		if r.Violation != nil {
			fmt.Fprintf(&b, "%s violation at event %d, schedule %v: %s\n",
				r.Engine, r.Violation.At, r.Violation.Schedule, r.Violation.Verdict.Reason)
		}
	}
	return b.String()
}
