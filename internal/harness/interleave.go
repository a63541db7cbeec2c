package harness

import (
	"math/rand"
	"sync"

	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
	"duopacity/internal/recorder"
	"duopacity/internal/stm/engines"
)

// RunInterleaved executes the workload's plan deterministically: the
// workload's goroutines become virtual threads stepped one t-operation at a
// time by a single real goroutine, in an order drawn from the workload
// seed. The recorded history is a pure function of the workload — it does
// not depend on GOMAXPROCS or the Go scheduler — which makes certification
// reproducible across machines and deterministically exposes interleavings
// that real goroutines hit only under lucky preemption (on a single-CPU
// machine, almost never). In particular, an engine with in-place writes
// ("ple", "etl") is steered through the read-an-uncommitted-write window
// whenever the plan contains it.
//
// Engines that block inside an operation are stepped under an exclusion
// policy derived from the engine's locking discipline (the shared
// schedulePolicy of policy.go, also used by ExplorePlanCtx), so the
// single-threaded scheduler never deadlocks; for "gl", whose global lock
// spans the whole transaction, this degenerates to the serial execution
// the real engine produces anyway.
//
// RunInterleaved samples exactly one schedule of the workload's plan; the
// exhaustive counterpart enumerating every schedule the policy allows is
// ExplorePlanCtx.
func RunInterleaved(w Workload) (*history.History, RunStats, error) {
	return runInterleaved(w, nil)
}

// runScratch is what an interleaved run takes beyond its engine and
// gives back when it returns: the recorder, whose event log keeps its
// capacity from run to run, and the one lazily seeded generator the run
// draws its plan and schedule from. History copies the log, so handing
// the recorder on after the run's history is built is safe.
type runScratch struct {
	rec *recorder.Recorder
	rng *rand.Rand
}

var runScratchPool = sync.Pool{New: func() any {
	return &runScratch{rec: recorder.New(nil), rng: lazyrand.New(0)}
}}

// runInterleaved is RunInterleaved with an optional event tap attached to
// the recorder before the schedule starts (the online-certification
// hook); the tap observes the deterministic event order as it is
// produced.
func runInterleaved(w Workload, tap func(history.Event)) (*history.History, RunStats, error) {
	w = w.withDefaults()
	eng, err := engines.New(w.Engine, w.Objects)
	if err != nil {
		return nil, RunStats{}, err
	}
	sc := runScratchPool.Get().(*runScratch)
	rec, rng := sc.rec, sc.rng
	rec.Restore(eng, 0, 0) // as recorder.New(eng), keeping the log's capacity
	if tap != nil {
		rec.Tap(tap)
	}
	// One generator serves the episode: planFor re-seeds it per thread,
	// then it is re-seeded for the schedule.
	st := &stepper{
		rec:         rec,
		threads:     threadsFor(planFor(w, rng)),
		policy:      policyFor(w.Engine),
		maxAttempts: w.MaxAttempts,
	}
	rng.Seed(w.Seed*6364136223846793005 + 1442695040888963407)
	buf := make([]int, 0, len(st.threads))
	for {
		r := st.runnable(buf)
		if len(r) == 0 {
			break // all threads done
		}
		st.step(st.threads[r[rng.Intn(len(r))]])
	}
	h := rec.History()
	rec.Tap(nil)
	rec.Restore(nil, 0, 0)
	runScratchPool.Put(sc)
	return h, RunStats{
		Engine:  w.Engine,
		Commits: st.commits,
		Aborts:  st.aborts,
		Failed:  st.failed,
	}, nil
}
