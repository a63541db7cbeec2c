package harness

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"text/tabwriter"

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
//   - prefix-closure cuts (the paper's Corollary 2): each schedule feeds a
//     spec.Monitor through the recorder's tap, and the moment the monitor
//     latches a violation every extension of the prefix is known violating
//     — the whole subtree is cut after O(1) work at the causing event;
//   - sleep sets (a DPOR-style partial-order reduction): after a subtree
//     explores the schedules starting with step a, sibling subtrees need
//     not re-explore interleavings that merely reorder a with steps
//     independent of it. Independence is engine-aware and deliberately
//     conservative — only steps that cannot begin or complete a
//     transaction (which would change real-time order) and cannot abort
//     are ever claimed independent, so swapping them provably preserves
//     the recorded history's verdict (see independentSteps);
//   - symmetry reduction (the idea of internal/enum: transaction k enters
//     only after k-1): two threads that have not started and run identical
//     programs are interchangeable, so only the lower-indexed one may take
//     its first step first.
//
// Under the stepper the whole world is single-threaded plain data — the
// engine with its transactions in flight (stm.Forkable), the virtual
// threads, the recorder's log and the monitor — so the DFS is stateful:
// each decision frame forks the world once, when it opens, into storage
// the frame slot keeps across pushes. A backtrack restores the top frame's
// fork in place — the engine and its transactions overwritten from the
// copy, the recorder truncated, the monitor rewound (spec.Session.Rewind,
// the paper's Lemma 1) to the fork's length — and steps only the new
// suffix. The restored prefix is the one the frame recorded, by
// construction, so nothing is re-executed or compared. The engine is
// built once per exploration, for the root.
//
// The quantifier is the stepper's schedule space — the engine's exclusion
// policy plus the stepper's abort-backoff discipline (an aborted thread
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
	// engine's exclusion policy plus the abort-backoff discipline, the
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
	// MaxSteps bounds a single schedule's length (default: a generous
	// multiple of the plan size; exceeding it counts as budget
	// exhaustion).
	MaxSteps int
	// NodeLimit bounds each monitor check (default 2_000_000, as
	// certification). An undecided check makes the outcome
	// BudgetExhausted: the proof obligation was not discharged.
	NodeLimit int
	// StopAtFirstViolation ends the exploration at the first violating
	// schedule instead of surveying the rest of the space (refutation
	// needs one witness; proving still requires exhaustion).
	StopAtFirstViolation bool

	// DisableSleepSets, DisableSymmetry and DisablePrefixCut turn off the
	// individual prunings — the naive enumeration they leave behind is the
	// reference the pruning-soundness tests and EXPERIMENTS.md numbers
	// compare against. With all three set, the explorer enumerates the raw
	// stepper schedule space and runs every schedule to completion, so
	// OnSchedule sees every history of that space.
	DisableSleepSets bool
	DisableSymmetry  bool
	DisablePrefixCut bool

	// OnSchedule, when set, observes each schedule that runs to
	// completion: the thread choice at each step, the recorded history,
	// and its verdict. With the default prefix cut a violating schedule
	// is cut at its latching step — even when that step happens to be its
	// last — and is counted in PrefixCut, not delivered here; set
	// DisablePrefixCut to observe every schedule of the space. The
	// verdict's witness is the exploration's one monitor's: ask for
	// v.Witness() during the callback, not after it returns. One
	// ExplorePlanCtx call invokes the callback sequentially, but a config
	// shared across concurrent explorations (a checkfarm explore job run
	// with jobs > 1) invokes it from all workers — such a callback must be
	// safe for concurrent use.
	// The field is excluded from serialization (checkfarm.JobSpec ships
	// ExploreConfig over the certd wire; a callback cannot travel).
	OnSchedule func(schedule []int, h *history.History, v spec.Verdict) `json:"-"`
}

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
	if cfg.MaxSteps <= 0 {
		// Every retry replays at most one transaction's steps, and each
		// abort forces another thread's t-completion first, so schedules
		// are far shorter than this in practice.
		cfg.MaxSteps = (cfg.MaxAttempts+1)*p.Steps() + 64
	}
	if cfg.NodeLimit <= 0 {
		cfg.NodeLimit = 2_000_000
	}
	return cfg
}

// ExploreViolation pins one violating schedule.
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

// ExploreReport is the result of exploring one plan on one engine.
type ExploreReport struct {
	Engine    string
	Criterion spec.Criterion
	Plan      stm.Plan
	Outcome   ExploreOutcome

	// Schedules counts schedules run to completion; PrefixCut counts
	// subtrees cut mid-schedule by the latched monitor (each cut stands
	// for every schedule extending the violating prefix).
	Schedules int
	PrefixCut int
	// Violations counts violating schedules/subtrees found; Violation
	// pins the first.
	Violations int
	Violation  *ExploreViolation
	// SleepPruned and SymmetryPruned count scheduling choices skipped by
	// the respective prunings (each skip cuts a whole subtree).
	SleepPruned    int
	SymmetryPruned int
	// Steps is the total length of the walked schedules, in t-operation
	// steps. Replays counts every walk down the tree regardless of how it
	// ended: completed schedules, prefix-cut and sleep-cut paths, and
	// step-budget truncations (it is not derivable from the other
	// counters — SleepPruned also counts sibling skips that replay
	// nothing).
	Steps   int64
	Replays int
	// StepsExecuted counts the steps actually run: a replay restores the
	// fork of its decision frame and runs only the new suffix, so Steps −
	// StepsExecuted is what forking saved. Forks counts the forks taken,
	// one per decision frame opened.
	StepsExecuted int64
	Forks         int
	// MonitorEvents counts the recorded events appended to the monitor,
	// SharedEvents those of the restored prefixes, which it already held:
	// their sum is every event of the walked schedules, and SharedEvents is
	// what rewinding instead of rebuilding saved.
	MonitorEvents int64
	SharedEvents  int64
	// MaxFrontier is the deepest decision stack reached — with
	// BudgetExhausted, how deep the explored frontier got.
	MaxFrontier int
	// Undecided counts completed schedules whose check hit the node
	// limit.
	Undecided int
	// DegradedReason is set when the exploration did not run to its
	// configured budget for an exceptional reason — the context was
	// cancelled, a monitor rejected a recorded event, or (under the
	// checkfarm) the exploration shard panicked past its retries. The Outcome is BudgetExhausted in that case: degraded
	// explorations are honest undecided results, never silent drops.
	DegradedReason string
}

// ExplorePlanCtx enumerates every schedule of the deterministic stepper's
// space for the plan — the engine's exclusion policy plus the stepper's
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

// explore is ExplorePlanCtx on an engine already built: the root of the
// world every decision frame forks.
func explore(ctx context.Context, engine string, eng stm.Engine, p stm.Plan, cfg ExploreConfig) (ExploreReport, error) {
	root, ok := eng.(stm.Forkable)
	if !ok {
		return ExploreReport{}, fmt.Errorf("harness: explore needs a forkable engine, %s is not", engine)
	}
	cfg = cfg.withDefaults(p)
	switch cfg.Criterion {
	case spec.DUOpacity, spec.Opacity:
	default:
		return ExploreReport{}, fmt.Errorf("harness: explore requires a prefix-closed monitorable criterion (du-opacity or opacity), got %v", cfg.Criterion)
	}
	rec := recorder.New(root)
	n := len(p.Threads)
	e := &explorer{
		engine:   engine,
		cfg:      cfg,
		ctx:      ctx,
		symClass: symClasses(p.Threads),
		rep:      ExploreReport{Engine: engine, Criterion: cfg.Criterion, Plan: p},
		eng:      root,
		rec:      rec,
		st:       stepper{rec: rec, threads: threadsFor(p), policy: policyFor(engine), maxAttempts: cfg.MaxAttempts},
		in:       make([]stm.Txn, n),
		out:      make([]stm.Txn, n),
		targets:  make([]*recorder.Txn, n),
		free:     make([]*recorder.Txn, 0, n),
	}
	e.newMonitor()
	e.run()
	return e.rep, nil
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
	events  int           // events recorded (and held by the monitor)
	depth   int           // schedule length
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
	engine   string
	cfg      ExploreConfig
	ctx      context.Context
	symClass []int // per-thread program class, see symClasses
	rep      ExploreReport

	// One engine, one recorder, one stepper and one monitor serve every
	// replay: restore overwrites the first three from a frame's fork and
	// rewinds the monitor.
	eng stm.Forkable
	rec *recorder.Recorder
	st  stepper
	m   *spec.Monitor
	// events counts the events of the current schedule, all of which the
	// monitor holds. latchAt is the index of the event at which the monitor
	// latched its violation, -1 while it has none — a restore keeps it when
	// the restored prefix contains that event. tapFault is the current
	// replay's first monitor failure.
	events   int
	latchAt  int
	tapFault string

	stack []exFrame
	sched []int // thread stepped at each point of the current replay
	buf   []int // runnable scratch
	cbuf  []int // symmetry-filter scratch
	// Per-thread fork scratch: the transactions handed to Fork and their
	// copies, and the recorded transactions whose storage a restore reuses.
	in, out       []stm.Txn
	targets, free []*recorder.Txn

	budget bool // a budget bound was hit (schedules or steps)
}

// newMonitor gives the exploration its monitor and taps it onto the
// recorder: once per exploration, and again only after a monitor panicked
// (the recorder detaches a panicking tap, and the monitor it interrupted
// is not to be trusted). The next restore feeds the new monitor the
// prefix it restores.
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
	e.rec.Tap(e.observe)
}

// latched reports whether the current schedule's events include the one
// that latched the monitor.
func (e *explorer) latched() bool { return e.latchAt >= 0 }

// observe is the recorder's tap: every recorded event goes to the monitor.
func (e *explorer) observe(ev history.Event) {
	if e.tapFault != "" {
		return
	}
	v, err := e.m.Append(ev)
	if err != nil {
		// The recorder only emits matched, well-ordered events, so a
		// rejection means the monitor and recorder disagree — degrade
		// this exploration honestly instead of crashing the farm.
		e.tapFault = "monitor rejected recorded event: " + err.Error()
		return
	}
	if e.latchAt < 0 && !v.OK && !v.Undecided {
		e.latchAt = e.events
	}
	e.events++
	e.rep.MonitorEvents++
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
	w.lastID, w.events, w.depth = e.rec.LastID(), e.events, len(e.sched)
	e.rep.Forks++
}

// restore returns the world to the fork w: the engine and the threads'
// transactions are overwritten in place, the recorder truncated, the
// monitor rewound to the fork's events. The restored prefix counts as
// steps walked and as shared events.
func (e *explorer) restore(w *world) {
	st := &e.st
	// Copy targets: a transaction still in flight at the end of the last
	// replay has not ended, so it cannot be in the engine's pool (the pool
	// rule of stm.Forkable); Fork draws any further ones from the pool.
	free := e.free[:0]
	for _, t := range st.threads {
		if t.tx != nil {
			free = append(free, t.tx)
		}
	}
	for i := range st.threads {
		e.in[i], e.out[i], e.targets[i] = nil, nil, nil
		if w.ids[i] == 0 {
			continue
		}
		e.in[i] = w.txns[i]
		if k := len(free) - 1; k >= 0 {
			e.targets[i], e.out[i], free = free[k], free[k].Inner(), free[:k]
		}
	}
	w.eng.Fork(e.eng, e.in, e.out)
	for i, t := range st.threads {
		*t = w.threads[i]
		if w.ids[i] != 0 {
			t.tx = e.rec.Resume(e.targets[i], w.ids[i], e.out[i])
		}
	}
	st.vals, st.commits, st.aborts, st.failed = w.vals, w.commits, w.aborts, w.failed
	e.rec.Restore(e.eng, w.events, w.lastID)
	e.sched = e.sched[:w.depth]
	e.rep.Steps += int64(w.depth)

	e.tapFault = ""
	if e.latchAt >= w.events {
		e.latchAt = -1
	}
	if e.m.Len() > w.events {
		if err := e.m.Rewind(w.events); err != nil {
			e.tapFault = "monitor rewind: " + err.Error() // unreachable: the monitor never retires
			return
		}
	}
	fed := e.feedMonitor(w.events)
	e.events = w.events
	e.rep.SharedEvents += int64(w.events - fed)
}

// feedMonitor appends to the monitor the recorded events it lacks up to
// n — after newMonitor, the restored prefix the new monitor never saw —
// and returns how many it appended. A panic is handled as the recorder
// handles a panicking tap.
func (e *explorer) feedMonitor(n int) (fed int) {
	if e.m.Len() == n {
		return 0
	}
	defer func() {
		if r := recover(); r != nil {
			e.tapFault = fmt.Sprintf("explore: monitor panicked on a restored prefix: %v", r)
			e.newMonitor()
		}
	}()
	e.events = e.m.Len()
	for _, ev := range e.rec.History().Events()[e.events:n] {
		e.observe(ev)
		fed++
	}
	return fed
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
			if !e.cfg.DisableSleepSets && f.base&(1<<uint(t)) != 0 {
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
		if e.tapFault != "" {
			e.noteDegraded(e.tapFault)
			return endSteps
		}
	}
	st := &e.st
	var sleep uint64 // the running sleep set along the path
	for {
		r := st.runnable(e.buf)
		e.buf = r[:0]
		if len(r) == 0 {
			e.finishSchedule()
			return endComplete
		}
		if len(e.sched) >= e.cfg.MaxSteps {
			// A latched violation survives the truncation: the criterion is
			// prefix-closed, so the violating prefix refutes the plan no
			// matter how the schedule would have continued (reachable only
			// with DisablePrefixCut — the cut returns at the latching step).
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
			if !e.cfg.DisableSleepSets && sleep&(1<<uint(taken)) != 0 {
				e.rep.SleepPruned++
				return endSleepCut
			}
			sleep = e.childSleep(st, sleep, taken)
		default:
			// A fresh decision point: open a frame, skipping branches that
			// start inside the inherited sleep set.
			f := e.pushFrame(choices, sleep)
			for f.next < len(f.choices) && !e.cfg.DisableSleepSets && f.base&(1<<uint(f.choices[f.next])) != 0 {
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
		if e.tapFault == "" {
			if terr := e.rec.TapError(); terr != nil {
				// The recorder recovered a panicking monitor; the capture is
				// intact but unobserved from here on, and the replays to come
				// get a monitor that was not interrupted mid-append.
				e.tapFault = terr.Error()
				e.newMonitor()
			}
		}
		if e.tapFault != "" {
			e.noteDegraded(e.tapFault)
			return endSteps
		}
		if e.latched() && !e.cfg.DisablePrefixCut {
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

// exploreOracle and replayOracle are nil outside tests, which set them to
// hold the rewound monitor against a fresh one wherever a verdict is read,
// and the forked world against a replay from scratch wherever a walk ends
// (explore_test.go).
var (
	exploreOracle func(e *explorer, v spec.Verdict)
	replayOracle  func(e *explorer)
)

// verdict returns the monitor's verdict for the current schedule's events.
func (e *explorer) verdict() spec.Verdict {
	v := e.m.Verdict()
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
		// Reachable only with DisablePrefixCut (the naive reference
		// mode): with the cut enabled a latch — even on the schedule's
		// final step — returns endPrefixCut before finishSchedule runs.
		e.recordViolation()
	}
	if e.cfg.OnSchedule != nil {
		e.cfg.OnSchedule(append([]int(nil), e.sched...), e.rec.History(), v)
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
	if e.cfg.DisableSymmetry {
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
	if e.cfg.DisableSleepSets || stateSleep == 0 {
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
		if ok && independentSteps(e.engine, zd, td) {
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

// independentSteps is the engine-aware independence relation of the sleep
// sets. It must under-approximate true commutativity: claiming two steps
// independent asserts that executing them in either order yields the same
// engine state, the same event outcomes, and — because neither begins nor
// completes a transaction — a recorded history of equal verdict (the only
// order-sensitive inputs to the implemented criteria are real-time order,
// set by t-completions vs first events, and the position of read responses
// relative to tryC invocations; none participate in a swap of two plain
// operation steps). Steps that could abort are therefore never claimed
// independent: an abort is a t-completion.
func independentSteps(engine string, a, b stepDesc) bool {
	if a.thread == b.thread {
		return false
	}
	if a.begin || b.begin || a.commit || b.commit {
		return false
	}
	// The relation is keyed on the base engine: CM suffixes change only
	// how long conflicting steps wait, never which steps can conflict.
	switch engines.Base(engine) {
	case "tl2", "norec", "pdur":
		// Deferred-update with buffered, invisible writes: a mid-
		// transaction write mutates only transaction-local state and never
		// aborts, so two writes commute regardless of object. Reads can
		// abort (version/value validation), which would end the
		// transaction and shift real-time order — never independent.
		return !a.read && !b.read
	case "ple":
		// In-place, abort-free: reads are unvalidated loads that never
		// fail and writes mutate the object (and the writer lock) in
		// place. Read/read always commutes; read/write commutes on
		// distinct objects (the read's value and the write's effect cannot
		// observe each other, and reads never touch the writer lock).
		// Write/write pairs are never co-enabled under the writer lock,
		// but are conservatively declared dependent anyway.
		if a.read && b.read {
			return true
		}
		if a.read != b.read {
			return a.obj != b.obj
		}
		return false
	default:
		// gl serializes whole transactions (no co-enabled mid-transaction
		// steps exist); dstm acquires ownership at writes and validates
		// whole read sets at reads; etl/etl+v write in place with
		// encounter-time locks and may abort at any operation. No
		// independence is claimed.
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
