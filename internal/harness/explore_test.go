package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/recorder"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
	"duopacity/internal/stm/tl2"
)

// pleLitmusPlan is the minimal plan separating deferred-update from
// in-place engines: one writer, one double reader of the same object. On
// an in-place engine some schedule lets the reader observe the write
// before the writer invokes tryC — precisely the deferred-update
// violation of the paper's Definition 3 — while deferred-update engines
// admit no such schedule.
const pleLitmusPlan = "w0\nr0 r0"

// abortedReaderPlan mirrors the shape of the pinned
// tms2_aborted_reader.hist divergence: a reader that validates against an
// overtaking committed writer and aborts at its own tryC. Deferred-update
// engines stay du-opaque on every schedule (du-opacity serializes the
// aborted reader before the writer), matching that golden's du verdict.
const abortedReaderPlan = "r0 r0\nw0 w0"

// naiveConfig enumerates the raw schedule space: no prunings, every
// schedule run to completion — the reference the pruned explorer is
// differentially tested against.
func naiveConfig() ExploreConfig {
	return ExploreConfig{off: naive}
}

// TestExploreProvesDeferredUpdateEngines is the CI gate for the
// exploration side of experiment S1: on the litmus plan, every schedule
// of the deferred-update engines is enumerated — full enumeration, zero
// violations — so the engines are *proven* du-opaque per plan, not
// sampled (the ROADMAP's "Interleaved scheduler coverage" item).
func TestExploreProvesDeferredUpdateEngines(t *testing.T) {
	for _, plan := range []string{pleLitmusPlan, abortedReaderPlan} {
		p := stm.MustParsePlan(plan)
		for _, eng := range []string{"tl2", "norec", "gl", "dstm", "pdur", "tl2+karma", "pdur+backoff"} {
			r, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{})
			if err != nil {
				t.Fatalf("%s: %v", eng, err)
			}
			if r.Outcome != ProvenDUOpaque {
				t.Errorf("%s on %q: outcome %s, want proven", eng, plan, r.Outcome)
			}
			if r.Schedules == 0 || r.Violations != 0 || r.Undecided != 0 {
				t.Errorf("%s on %q: schedules=%d violations=%d undecided=%d",
					eng, plan, r.Schedules, r.Violations, r.Undecided)
			}
		}
	}
}

// TestExploreProvesAtAcceptanceCeiling is the CI gate at the exploration
// size ceiling the acceptance criteria name (4 transactions / 8
// operations): the write-only plan below is exhausted — full enumeration,
// zero violations, zero undecided checks — so tl2 is proven du-opaque on
// it, with sleep sets (buffered tl2 writes commute) measurably shrinking
// the walk versus the naive space.
func TestExploreProvesAtAcceptanceCeiling(t *testing.T) {
	p := stm.MustParsePlan("w0 w1 | w0 w1\nw1 w0 | w1 w0")
	if p.NumTxns() != 4 || p.NumOps() != 8 {
		t.Fatalf("ceiling plan is %d txns / %d ops, want 4/8", p.NumTxns(), p.NumOps())
	}
	r, err := ExplorePlanCtx(context.Background(), "tl2", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ProvenDUOpaque || r.Violations != 0 || r.Undecided != 0 {
		t.Fatalf("outcome %s (violations=%d undecided=%d), want proven",
			r.Outcome, r.Violations, r.Undecided)
	}
	if r.SleepPruned == 0 {
		t.Error("no sleep-set pruning on a write-only tl2 plan")
	}
	naive, err := ExplorePlanCtx(context.Background(), "tl2", p, naiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if naive.Outcome != ProvenDUOpaque {
		t.Fatalf("naive outcome %s, want proven", naive.Outcome)
	}
	if r.Schedules >= naive.Schedules {
		t.Errorf("pruning did not reduce schedules: %d vs naive %d", r.Schedules, naive.Schedules)
	}
}

// TestExplorePinsPLEViolation: the explorer refutes the in-place engine
// on the litmus plan, pinning the violating schedule and the exact event
// that latched it; the violating prefix must also be rejected by the
// batch checker (monitor and checker agree).
func TestExplorePinsPLEViolation(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlanCtx(context.Background(), "ple", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound || r.Violation == nil {
		t.Fatalf("outcome %s, want violation", r.Outcome)
	}
	v := r.Violation
	if got := spec.CheckDUOpacity(v.History); got.OK || got.Undecided {
		t.Errorf("batch checker disagrees with the latched monitor: %s", got)
	}
	if v.At < 0 || v.At >= v.History.Len() {
		t.Errorf("latch index %d out of range (history has %d events)", v.At, v.History.Len())
	}
	// Prefix closure must have cut violating subtrees: the naive space of
	// this plan is strictly larger than what the pruned walk replayed.
	naive, err := ExplorePlanCtx(context.Background(), "ple", p, naiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.PrefixCut == 0 {
		t.Error("no prefix-closure cuts recorded")
	}
	if r.Replays >= naive.Schedules {
		t.Errorf("pruned walk replayed %d schedules, naive space is %d — no reduction",
			r.Replays, naive.Schedules)
	}
	if naive.Outcome != ViolationFound {
		t.Errorf("naive exploration outcome %s, want violation", naive.Outcome)
	}
}

// TestExploreGolden pins the explorer's first violation byte-for-byte:
// plan, schedule, latching event, reason and violating history must
// reproduce testdata/explore_ple_litmus.golden on every machine.
func TestExploreGolden(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlanCtx(context.Background(), "ple", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violation == nil {
		t.Fatal("no violation pinned")
	}
	v := r.Violation
	var b strings.Builder
	fmt.Fprintf(&b, "# First du-opacity violation the explorer pins for the ple litmus plan.\n")
	fmt.Fprintf(&b, "# plan (one thread per line):\n")
	for _, ln := range strings.Split(p.String(), "\n") {
		fmt.Fprintf(&b, "#   %s\n", ln)
	}
	fmt.Fprintf(&b, "# engine: %s\n# criterion: %s\n# schedule: %v\n# latched at event: %d\n# reason: %s\n",
		r.Engine, r.Criterion, v.Schedule, v.At, v.Verdict.Reason)
	b.WriteString(histio.FormatString(v.History))

	raw, err := os.ReadFile(filepath.Join("testdata", "explore_ple_litmus.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(raw) {
		t.Errorf("explorer diverged from the golden pin:\ngot:\n%swant:\n%s", b.String(), raw)
	}
}

// TestExploreContainsSampledSchedules is the sampler/explorer
// differential: every history RunInterleaved can produce for a workload
// must appear among the histories the naive exploration of the same plan
// enumerates — the sampler draws from exactly the space the explorer
// exhausts (shared stepper and admissibility rule, policy.go).
func TestExploreContainsSampledSchedules(t *testing.T) {
	for _, eng := range []string{"tl2", "norec", "ple", "gl", "etl"} {
		for seed := int64(1); seed <= 5; seed++ {
			w := Workload{
				Engine:           eng,
				Objects:          2,
				Goroutines:       2,
				TxnsPerGoroutine: 1,
				OpsPerTxn:        2,
				ReadFraction:     0.5,
				Seed:             seed,
				MaxAttempts:      3,
			}
			h, _, err := RunInterleaved(w)
			if err != nil {
				t.Fatalf("%s/%d: %v", eng, seed, err)
			}
			sampled := histio.FormatString(h)

			seen := make(map[string]bool)
			cfg := naiveConfig()
			cfg.MaxAttempts = w.MaxAttempts
			cfg.onSchedule = func(_ []int, eh *history.History, _ spec.Verdict) {
				seen[histio.FormatString(eh)] = true
			}
			r, err := ExplorePlanCtx(context.Background(), eng, PlanOf(w), cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", eng, seed, err)
			}
			if r.Outcome == BudgetExhausted {
				t.Fatalf("%s/%d: exploration did not exhaust the space", eng, seed)
			}
			if !seen[sampled] {
				t.Errorf("%s/%d: sampled history not among the %d enumerated schedules:\n%s",
					eng, seed, r.Schedules, sampled)
			}
		}
	}
}

// pruningPlans are the plan families the pruning-soundness and the
// rewound-monitor differentials walk.
var pruningPlans = []string{
	pleLitmusPlan,
	abortedReaderPlan,
	"w0 w1 w0\nw1 w0 w1", // write-only: sleep sets bite on tl2/norec
	"r0 w0\nr0 w0",       // identical threads: symmetry bites
	"w0 r1 | r0\nr0 w1",  // two txns on one thread
}

// watchRewoundMonitor installs the rewound-monitor oracle until tb ends:
// wherever the explorer reads a verdict — every finished schedule, every
// cut — a fresh monitor is fed the recorder's events and must report the
// same verdict, reason and latching event as the exploration's one
// monitor, which got there by restores and rewinds. It returns the
// number of verdicts checked. The tests that use it do not run in
// parallel.
func watchRewoundMonitor(tb testing.TB) *int {
	checked := new(int)
	exploreOracle = func(e *explorer, v spec.Verdict) {
		*checked++
		checkRewound(tb, e, v)
	}
	tb.Cleanup(func() { exploreOracle = nil })
	return checked
}

// checkRewound holds the exploration's verdict v on the recorder's events
// — its monitor's, which holds a prefix of them, or OK from the class set
// when that prefix is shorter — against a fresh monitor fed those events.
func checkRewound(tb testing.TB, e *explorer, v spec.Verdict) {
	fresh, err := spec.NewMonitor(e.cfg.Criterion, spec.WithNodeLimit(e.cfg.NodeLimit))
	if err != nil {
		tb.Fatal(err)
	}
	h := e.rec.History()
	if e.m.Len() > h.Len() || len(e.log) != h.Len() {
		tb.Fatalf("%s schedule %v: the monitor holds %d events and the log %d, the recorder %d",
			e.rep.Engine, e.sched, e.m.Len(), len(e.log), h.Len())
	}
	latchAt := -1
	for i, ev := range h.Events() {
		fv, err := fresh.Append(ev)
		if err != nil {
			tb.Fatalf("fresh monitor rejected recorded event %d: %v", i, err)
		}
		if latchAt < 0 && !fv.OK && !fv.Undecided {
			latchAt = i
		}
	}
	got := -1
	if e.latched() {
		got = e.latchAt
	}
	if fv := fresh.Verdict(); fv.OK != v.OK || fv.Undecided != v.Undecided || fv.Reason != v.Reason || latchAt != got {
		tb.Errorf("%s/%v schedule %v: rewound monitor says %v (latched at %d), a fresh one %v (latched at %d)\n%s",
			e.rep.Engine, e.cfg.Criterion, e.sched, v, got, fv, latchAt, histio.FormatString(h))
	}
}

// watchForkedWorld installs the fork-vs-replay oracle until tb ends:
// wherever a walk ends — a finished schedule or any cut — its schedule is
// run again from a fresh engine through the stepper, and the recorded
// events must be byte-identical to the recorder's, and the stepper's
// counters and threads equal to the forked world's. It returns the number
// of walks checked. The tests that use it do not run in parallel.
func watchForkedWorld(tb testing.TB) *int {
	checked := new(int)
	replayOracle = func(e *explorer) {
		*checked++
		eng, err := engines.New(e.rep.Engine, e.rep.Plan.Objects)
		if err != nil {
			tb.Fatal(err)
		}
		rec := recorder.New(eng)
		st := stepper{rec: rec, threads: threadsFor(e.rep.Plan), blocking: engines.TraitsOf(e.rep.Engine).Blocking, maxAttempts: e.cfg.MaxAttempts}
		var buf []int
		for _, th := range e.sched {
			buf = st.runnable(buf)
			st.step(st.threads[th])
		}
		got, want := histio.FormatString(e.rec.History()), histio.FormatString(rec.History())
		if got != want || e.rec.LastID() != rec.LastID() {
			tb.Fatalf("%s/%v schedule %v: the forked world recorded\n%s(last id %d), a replay from scratch\n%s(last id %d)",
				e.rep.Engine, e.cfg.Criterion, e.sched, got, e.rec.LastID(), want, rec.LastID())
		}
		fs := &e.st
		if fs.vals != st.vals || fs.commits != st.commits || fs.aborts != st.aborts || fs.failed != st.failed {
			tb.Fatalf("%s schedule %v: stepper counters %d/%d/%d/%d forked, %d/%d/%d/%d replayed", e.rep.Engine, e.sched,
				fs.vals, fs.commits, fs.aborts, fs.failed, st.vals, st.commits, st.aborts, st.failed)
		}
		for i, ft := range fs.threads {
			rt := st.threads[i]
			if ft.txnIdx != rt.txnIdx || ft.opIdx != rt.opIdx || ft.attempts != rt.attempts ||
				ft.wrote != rt.wrote || ft.done != rt.done || (ft.tx == nil) != (rt.tx == nil) ||
				(ft.tx != nil && ft.tx.ID() != rt.tx.ID()) {
				tb.Fatalf("%s schedule %v: thread %d forked %+v, replayed %+v", e.rep.Engine, e.sched, i, *ft, *rt)
			}
		}
	}
	tb.Cleanup(func() { replayOracle = nil })
	return checked
}

// TestExploreForkMatchesReplay is the fork-vs-replay oracle over the
// pruning-soundness plans, every engine of the matrix and both explorable
// criteria, with the prefix cut on and off: every walk's world, restored
// from forks and stepped only along its new suffix, is the world a replay
// from scratch builds — and forking did skip steps, or the comparison
// would be vacuous.
func TestExploreForkMatchesReplay(t *testing.T) {
	checked := watchForkedWorld(t)
	var steps, executed int64
	for _, src := range pruningPlans {
		p := stm.MustParsePlan(src)
		for _, eng := range engines.Matrix() {
			for _, c := range []spec.Criterion{spec.DUOpacity, spec.Opacity} {
				for _, off := range []pruning{0, prefixCut} {
					r, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{Criterion: c, off: off})
					if err != nil {
						t.Fatalf("%s on %q: %v", eng, src, err)
					}
					if (r.Forks == 0 && r.Replays > 1) || r.StepsExecuted > r.Steps {
						t.Fatalf("%s on %q: %d forks, %d of %d steps executed", eng, src, r.Forks, r.StepsExecuted, r.Steps)
					}
					steps, executed = steps+r.Steps, executed+r.StepsExecuted
				}
			}
		}
	}
	if *checked == 0 || executed == steps {
		t.Fatalf("vacuous: %d walks checked, %d of %d steps executed", *checked, executed, steps)
	}
	t.Logf("%d walks checked; %d of %d steps executed", *checked, executed, steps)
}

// TestExploreMonitorPanicDegrades makes the monitor panic in the middle of
// an exploration (a fault injected at the explorer's monitor feed) and
// checks that the rest of the walk is still certified: every later verdict
// of the new monitor — fed the restored prefix it never saw — equals a
// fresh monitor's, every later world equals a replay from scratch, and the
// report says it is degraded.
func TestExploreMonitorPanicDegrades(t *testing.T) {
	watchForkedWorld(t)
	t.Cleanup(func() { exploreOracle, feedHook = nil, nil })
	for _, eng := range []string{"tl2", "ple", "dstm"} {
		for _, src := range []string{abortedReaderPlan, "w0 r1 | r0\nr0 w1"} {
			verdicts, after := 0, 0
			exploreOracle = func(e *explorer, v spec.Verdict) {
				verdicts++
				switch {
				case verdicts == 3:
					feedHook = func(history.Event) {
						feedHook = nil
						panic("injected monitor fault")
					}
				case verdicts > 3:
					after++
					checkRewound(t, e, v)
				}
			}
			r, err := ExplorePlanCtx(context.Background(), eng, stm.MustParsePlan(src), ExploreConfig{off: prefixCut})
			exploreOracle, feedHook = nil, nil
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(r.DegradedReason, "injected monitor fault") || r.Outcome == ProvenDUOpaque {
				t.Errorf("%s on %q: outcome %s, degraded %q; want the fault, and no proof", eng, src, r.Outcome, r.DegradedReason)
			}
			if after == 0 {
				t.Errorf("%s on %q: no verdict read after the fault", eng, src)
			}
		}
	}
}

// TestExploreRewoundMonitorMatchesFresh is the explorer's share of the
// rewind oracle: over the pruning-soundness plans and engines, for both
// explorable criteria, with the prefix cut on and off, the one rewound
// monitor is indistinguishable from a monitor built fresh for each replay
// — and the walk did share events, or the comparison would be vacuous.
// spec's TestExploreRewindPlacements places every rewind of such walks on
// a freshly pooled engine beside the decider's held one.
func TestExploreRewoundMonitorMatchesFresh(t *testing.T) {
	checked := watchRewoundMonitor(t)
	var shared, appended int64
	for _, src := range pruningPlans {
		p := stm.MustParsePlan(src)
		for _, eng := range []string{"tl2", "norec", "ple", "gl", "etl", "dstm"} {
			for _, c := range []spec.Criterion{spec.DUOpacity, spec.Opacity} {
				for _, off := range []pruning{0, prefixCut} {
					r, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{Criterion: c, off: off})
					if err != nil {
						t.Fatalf("%s on %q: %v", eng, src, err)
					}
					shared, appended = shared+r.SharedEvents, appended+r.MonitorEvents
				}
			}
		}
	}
	if *checked == 0 || shared == 0 {
		t.Fatalf("vacuous: %d verdicts checked, %d events shared, %d appended", *checked, shared, appended)
	}
	t.Logf("%d verdicts checked; %d events appended to the monitors, %d shared", *checked, appended, shared)
}

// watchClassMemo installs the class-memo oracle until tb ends: every event
// the explorer answers from the class set also catches the monitor up to
// it, and the monitor must judge that prefix OK too. It returns the number
// of answers checked and of disagreements. The tests that use it do not
// run in parallel.
func watchClassMemo(tb testing.TB) (checked, disagreed *int) {
	checked, disagreed = new(int), new(int)
	classOracle = func(e *explorer, at int) {
		*checked++
		if v := e.catchUp(at + 1); e.fault != "" || !v.OK {
			if *disagreed == 0 {
				tb.Logf("%s schedule %v: event %d answered OK from the class set, the monitor says %v (fault %q)",
					e.rep.Engine, e.sched, at, v, e.fault)
			}
			*disagreed++
		}
	}
	tb.Cleanup(func() { classOracle = nil })
	return checked, disagreed
}

// TestExploreClassMemoMatchesMonitor is the class memo's oracle: over the
// pruning-soundness plans and every engine the explorer is run on, with
// the prefix cut on and off, each du-opacity verdict served from the set
// of judged prefix classes equals the monitor's verdict on the same
// prefix. With the class key forced to a constant the oracle must see a
// disagreement, or it could not see one at all.
func TestExploreClassMemoMatchesMonitor(t *testing.T) {
	checked, disagreed := watchClassMemo(t)
	explore := func() (hits int64) {
		for _, src := range pruningPlans {
			p := stm.MustParsePlan(src)
			for _, eng := range []string{"tl2", "norec", "pdur", "ple", "gl", "etl", "dstm"} {
				for _, off := range []pruning{0, prefixCut} {
					r, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{off: off})
					if err != nil {
						t.Fatalf("%s on %q: %v", eng, src, err)
					}
					hits += r.ClassHits
				}
			}
		}
		return hits
	}
	hits := explore()
	if *checked == 0 || int64(*checked) != hits || *disagreed != 0 {
		t.Fatalf("%d answers from the class set checked of %d reported, %d disagreed with the monitor", *checked, hits, *disagreed)
	}
	t.Logf("%d answers from the class set checked against the monitor", *checked)

	classKeyHook = func(uint64) uint64 { return 1 }
	t.Cleanup(func() { classKeyHook = nil })
	*checked, *disagreed = 0, 0
	explore()
	if *disagreed == 0 {
		t.Fatalf("constant class key: %d answers checked, none disagreed — the oracle is vacuous", *checked)
	}
	t.Logf("constant class key: %d of %d answers disagreed with the monitor", *disagreed, *checked)
}

// TestExploreReplayAllocs is the allocation gate of the forked replay, on
// the benchmark's explore-farm plan shape (3 threads, one transaction of 3
// operations each, 2 objects, 2048 schedules) under each engine the
// benchmark explores: a replay restores its frame's fork in place — engine
// transactions, recorded transactions and the monitor's engine included —
// and runs only its new suffix, so what it still allocates is what that
// suffix's Begins, engine steps and searches cost. Before forking, a tl2
// replay cost 29 allocations and 1.8 KB; before the rewound monitor, 161
// and 22.8 KB. With a pooled engine per rewind and a recorded transaction
// allocated per resume, this plan cost 3.5 / 3.4 / 3.9 allocations and
// 188 / 180–186 / 209 B per replay on tl2 / norec / pdur, and 6.4–6.5 and
// 307–341 B on ple; with the held engine, wrappers the explorer owns and
// searches that write into the decider's witness, 1.5 / 1.3 / 1.9 and
// 92 / 84 / 107–114 B, and 5.7 and 275 B; with events answered from the
// class set and recorded transactions begun into storage their thread
// owns, 1.3 / 1.2 / 1.7 and 107 / 81–88 / 104–111 B, and 5.4–5.5 and
// 273–307 B, the first exploration of the process (tl2) paying for its
// class set, 36 KB.
func TestExploreReplayAllocs(t *testing.T) {
	p := PlanOf(Workload{Goroutines: 3, TxnsPerGoroutine: 1, OpsPerTxn: 3, Objects: 2, Seed: 1})
	cfg := ExploreConfig{MaxSchedules: 2048}
	bound := map[string]struct{ allocs, bytes float64 }{
		"tl2": {2, 128}, "norec": {2, 128}, "pdur": {2, 128}, "ple": {6.5, 384},
	}
	for _, eng := range []string{"tl2", "norec", "pdur", "ple"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := ExplorePlanCtx(context.Background(), eng, p, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if r.Replays < 200 {
			t.Fatalf("%s: only %d replays; the gate wants a walk long enough to amortise the set-up", eng, r.Replays)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / float64(r.Replays)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Replays)
		t.Logf("%s, %d replays: %.2f allocations and %.0f bytes per replay; %d forks, %d of %d steps executed",
			eng, r.Replays, allocs, bytes, r.Forks, r.StepsExecuted, r.Steps)
		if b := bound[eng]; (allocs > b.allocs || bytes > b.bytes) && !raceEnabled {
			t.Errorf("%s: a replay costs %.2f allocations and %.0f bytes, want at most %g and %g", eng, allocs, bytes, b.allocs, b.bytes)
		}
	}
}

// BenchmarkExplorePlan measures the exhaustive schedule explorer on the
// litmus plans, pruned (sleep sets + symmetry + prefix-closure cut, the
// default) versus naive (raw schedule space, every schedule run to
// completion): the per-plan cost of turning sampled certification into a
// proof, and what the prunings buy. EXPERIMENTS.md records the
// schedules-explored reduction alongside these timings.
func BenchmarkExplorePlan(b *testing.B) {
	plans := []struct {
		name   string
		engine string
		src    string
	}{
		{"litmus/tl2", "tl2", "w0\nr0 r0"},
		{"litmus/ple", "ple", "w0\nr0 r0"},
		{"sym3/tl2", "tl2", "r0 w0\nr0 w0\nr0 w0"},
		{"writes/tl2", "tl2", "w0 w1 w0\nw1 w0 w1"},
	}
	for _, tc := range plans {
		p := stm.MustParsePlan(tc.src)
		b.Run(tc.name+"/pruned", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := ExplorePlanCtx(context.Background(), tc.engine, p, ExploreConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Outcome == BudgetExhausted {
					b.Fatal("plan must be decidable")
				}
			}
		})
		b.Run(tc.name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			cfg := naiveConfig()
			for i := 0; i < b.N; i++ {
				r, err := ExplorePlanCtx(context.Background(), tc.engine, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Outcome == BudgetExhausted {
					b.Fatal("plan must be decidable")
				}
			}
		})
	}
}

// BenchmarkExploreReplay prices one replay — fork restore, the new
// suffix's engine steps and recording, and the rewound monitor — per
// engine of the benchmark's explore-farm workload, on 16 plans of its
// shape at its schedule budget; the in-process tables of EXPERIMENTS.md
// "PR 24" and "PR 28" are this benchmark's output.
func BenchmarkExploreReplay(b *testing.B) {
	plans := make([]stm.Plan, 16)
	for i := range plans {
		plans[i] = PlanOf(Workload{Goroutines: 3, TxnsPerGoroutine: 1, OpsPerTxn: 3, Objects: 2, Seed: int64(i + 1)})
	}
	for _, eng := range []string{"tl2", "norec", "pdur", "ple"} {
		b.Run(eng, func(b *testing.B) {
			var replays int
			var appended, shared, hits, steps, executed int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					r, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{MaxSchedules: 2048})
					if err != nil {
						b.Fatal(err)
					}
					replays += r.Replays
					appended, shared, hits = appended+r.MonitorEvents, shared+r.SharedEvents, hits+r.ClassHits
					steps, executed = steps+r.Steps, executed+r.StepsExecuted
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(replays)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/replay")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/replay")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/replay")
			b.ReportMetric(float64(appended)/n, "events/replay")
			b.ReportMetric(float64(hits)/n, "class-hits/replay")
			b.ReportMetric(float64(shared)/float64(shared+appended), "shared-share")
			b.ReportMetric(float64(executed)/float64(steps), "executed-share")
		})
	}
}

// TestExplorePruningSound: the pruned walk must agree with the naive
// reference on the outcome, and every history a pruned complete schedule
// records must be one the naive enumeration also records (prunings only
// ever remove redundant interleavings, never invent new ones).
func TestExplorePruningSound(t *testing.T) {
	for _, src := range pruningPlans {
		p := stm.MustParsePlan(src)
		for _, eng := range []string{"tl2", "norec", "ple", "gl", "etl", "dstm"} {
			naiveSeen := make(map[string]bool)
			ncfg := naiveConfig()
			ncfg.onSchedule = func(_ []int, h *history.History, _ spec.Verdict) {
				naiveSeen[histio.FormatString(h)] = true
			}
			naive, err := ExplorePlanCtx(context.Background(), eng, p, ncfg)
			if err != nil {
				t.Fatalf("%s on %q: %v", eng, src, err)
			}

			var pruned ExploreReport
			pcfg := ExploreConfig{}
			pcfg.onSchedule = func(_ []int, h *history.History, _ spec.Verdict) {
				if !naiveSeen[histio.FormatString(h)] {
					t.Errorf("%s on %q: pruned walk recorded a history the naive space lacks:\n%s",
						eng, src, histio.FormatString(h))
				}
			}
			pruned, err = ExplorePlanCtx(context.Background(), eng, p, pcfg)
			if err != nil {
				t.Fatalf("%s on %q: %v", eng, src, err)
			}
			if pruned.Outcome != naive.Outcome {
				t.Errorf("%s on %q: pruned outcome %s, naive %s", eng, src, pruned.Outcome, naive.Outcome)
			}
			if pruned.Replays > naive.Replays {
				t.Errorf("%s on %q: pruning increased replays (%d > %d)",
					eng, src, pruned.Replays, naive.Replays)
			}
		}
	}
}

// TestExploreRefutesPLEGoldenWorkload: the workload whose sampled episode
// is pinned as testdata/ple_violation.hist is far too large to exhaust,
// but the explorer refutes it within a small budget — the budgeted mode's
// purpose: a violation is definitive evidence regardless of exhaustion.
func TestExploreRefutesPLEGoldenWorkload(t *testing.T) {
	p := PlanOf(pleGoldenWorkload())
	r, err := ExplorePlanCtx(context.Background(), "ple", p, ExploreConfig{
		MaxSchedules:         5_000,
		StopAtFirstViolation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound || r.Violation == nil {
		t.Fatalf("outcome %s after %d replays, want violation", r.Outcome, r.Replays)
	}
	if v := spec.CheckDUOpacity(r.Violation.History); v.OK || v.Undecided {
		t.Errorf("pinned violating prefix accepted by the batch checker: %s", v)
	}
}

// TestExploreTruncatedScheduleKeepsLatchedViolation: a violation the
// monitor latched before the step budget truncates the schedule is
// definitive (prefix closure) and must yield ViolationFound, not
// BudgetExhausted — reachable only with the prefix cut off, where no cut
// returns at the latching step.
func TestExploreTruncatedScheduleKeepsLatchedViolation(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlanCtx(context.Background(), "ple", p, ExploreConfig{off: prefixCut, maxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound || r.Violation == nil {
		t.Fatalf("outcome %s (violations=%d), want violation despite the step truncation",
			r.Outcome, r.Violations)
	}
	if v := spec.CheckDUOpacity(r.Violation.History); v.OK || v.Undecided {
		t.Errorf("pinned truncated prefix accepted by the batch checker: %s", v)
	}
}

// TestExploreBudgetExhausted: an unexhaustible plan under a tiny budget
// reports the frontier rather than claiming a proof.
func TestExploreBudgetExhausted(t *testing.T) {
	p := PlanOf(Workload{
		Engine: "tl2", Objects: 4, Goroutines: 4,
		TxnsPerGoroutine: 2, OpsPerTxn: 4, Seed: 1,
	})
	r, err := ExplorePlanCtx(context.Background(), "tl2", p, ExploreConfig{MaxSchedules: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != BudgetExhausted {
		t.Fatalf("outcome %s, want budget-exhausted", r.Outcome)
	}
	if r.Replays != 50 || r.MaxFrontier == 0 {
		t.Errorf("replays=%d frontier=%d", r.Replays, r.MaxFrontier)
	}
}

// TestExploreWorkloadPlansDefaultMaxAttempts: a workload's PlanOf plans
// explore under the explorer's own retry bound (2) when none is given —
// the Workload's 10,000-retry default is sized for wall-clock runs and
// does not travel with the plan, so small episodes are proven rather
// than left budget-exhausted.
func TestExploreWorkloadPlansDefaultMaxAttempts(t *testing.T) {
	w := Workload{
		Engine: "tl2", Objects: 2, Goroutines: 2,
		TxnsPerGoroutine: 2, OpsPerTxn: 2, ReadFraction: 0.5, Seed: 5,
	}
	for ep := 0; ep < 2; ep++ {
		we := w
		we.Seed += int64(ep) * episodeSeedStride
		r, err := ExplorePlanCtx(context.Background(), "tl2", PlanOf(we), ExploreConfig{StopAtFirstViolation: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != ProvenDUOpaque || r.Undecided != 0 {
			t.Errorf("episode %d: outcome %s (undecided=%d, replays=%d), want proven",
				ep, r.Outcome, r.Undecided, r.Replays)
		}
	}
}

// TestExploreOpacity: the monitorable prefix-closed criteria both work as
// the exploration target; the ple litmus violates opacity too (the prefix
// where the reader has observed the in-flight write admits no final-state
// opaque completion).
func TestExploreOpacity(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlanCtx(context.Background(), "ple", p, ExploreConfig{Criterion: spec.Opacity})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound {
		t.Errorf("ple/opacity outcome %s, want violation", r.Outcome)
	}
	r, err = ExplorePlanCtx(context.Background(), "tl2", p, ExploreConfig{Criterion: spec.Opacity})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ProvenDUOpaque {
		t.Errorf("tl2/opacity outcome %s, want proven", r.Outcome)
	}
}

// TestExploreDeterministic: two explorations of the same configuration
// agree byte-for-byte — reports, counters, pinned schedule.
func TestExploreDeterministic(t *testing.T) {
	p := stm.MustParsePlan("w0 r1\nr0 w1")
	for _, eng := range []string{"tl2", "ple"} {
		a, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExplorePlanCtx(context.Background(), eng, p, ExploreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Schedules != b.Schedules || a.Steps != b.Steps || a.Outcome != b.Outcome ||
			a.SleepPruned != b.SleepPruned || a.PrefixCut != b.PrefixCut {
			t.Errorf("%s: two explorations diverged: %+v vs %+v", eng, a, b)
		}
		if (a.Violation == nil) != (b.Violation == nil) {
			t.Fatalf("%s: violation presence diverged", eng)
		}
		if a.Violation != nil && histio.FormatString(a.Violation.History) != histio.FormatString(b.Violation.History) {
			t.Errorf("%s: pinned violations diverged", eng)
		}
	}
}

// TestExploreErrors pins the input validation.
func TestExploreErrors(t *testing.T) {
	good := stm.MustParsePlan(pleLitmusPlan)
	if _, err := ExplorePlanCtx(context.Background(), "bogus", good, ExploreConfig{}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := ExplorePlanCtx(context.Background(), "tl2", stm.Plan{}, ExploreConfig{}); err == nil {
		t.Error("invalid plan accepted")
	}
	for _, c := range []spec.Criterion{spec.FinalStateOpacity, spec.TMS2, spec.RCO, spec.Serializability} {
		if _, err := ExplorePlanCtx(context.Background(), "tl2", good, ExploreConfig{Criterion: c}); err == nil {
			t.Errorf("non-prefix-closed criterion %v accepted", c)
		}
	}
	big := stm.Plan{Objects: 1, Threads: make([][]stm.PlanTxn, 65)}
	for i := range big.Threads {
		big.Threads[i] = []stm.PlanTxn{{{Read: true}}}
	}
	if _, err := ExplorePlanCtx(context.Background(), "tl2", big, ExploreConfig{}); err == nil {
		t.Error("65-thread plan accepted")
	}
	// Forking is the only way the explorer replays: an engine without it
	// is refused, and every registered engine has it.
	if _, err := explore(context.Background(), "wrapped", struct{ stm.Engine }{tl2.New(1)}, good, ExploreConfig{}); err == nil {
		t.Error("engine that is not stm.Forkable accepted")
	}
	for _, name := range engines.Matrix() {
		if e, err := engines.New(name, 1); err != nil {
			t.Error(err)
		} else if _, ok := e.(stm.Forkable); !ok {
			t.Errorf("engine %s is not stm.Forkable", name)
		}
	}
}

// TestFormatExploreTable smoke-checks the CLI rendering.
func TestFormatExploreTable(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlanCtx(context.Background(), "ple", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatExploreTable([]ExploreReport{r})
	for _, want := range []string{"ple", "violation", "du-opacity", "schedule"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
