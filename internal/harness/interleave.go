package harness

import (
	"math/rand"
	"sync"

	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
	"duopacity/internal/recorder"
	"duopacity/internal/stm"
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
// Engines that block inside an operation are stepped under their
// Blocking trait (engines.TraitsOf; the admissibility rule of policy.go,
// shared with ExplorePlanCtx), so the single-threaded scheduler never
// deadlocks; for "gl", whose global lock spans the whole transaction,
// this degenerates to the serial execution the real engine produces
// anyway.
//
// RunInterleaved samples exactly one schedule of the workload's plan; the
// exhaustive counterpart enumerating every schedule the trait allows is
// ExplorePlanCtx.
func RunInterleaved(w Workload) (*history.History, RunStats, error) {
	sc, stats, err := runInterleaved(w)
	if err != nil {
		return nil, RunStats{}, err
	}
	defer sc.release()
	return sc.rec.History(), stats, nil
}

// runScratch is what a recorded run takes beyond its engine: the
// recorder, whose event log keeps its capacity from run to run, and the
// one lazily seeded generator the run draws its plan (and, interleaved,
// its schedule) from. A run hands it back with the run's log in the
// recorder; the caller ingests the log and then releases the scratch.
type runScratch struct {
	rec *recorder.Recorder
	rng *rand.Rand
}

var runScratchPool = sync.Pool{New: func() any {
	return &runScratch{rec: recorder.New(nil), rng: lazyrand.New(0)}
}}

// getRunScratch takes a scratch from the pool with its recorder around
// eng, as recorder.New(eng) would return it but for the log's capacity.
func getRunScratch(eng stm.Engine) *runScratch {
	sc := runScratchPool.Get().(*runScratch)
	sc.rec.Restore(eng, 0, 0)
	return sc
}

// release drops the engine and the log, and returns the scratch to the
// pool.
func (sc *runScratch) release() {
	sc.rec.Restore(nil, 0, 0)
	runScratchPool.Put(sc)
}

// recordRun runs w deterministically stepped (interleaved) or on real
// goroutines, and returns the scratch with the run's log in its recorder.
func recordRun(w Workload, interleaved bool) (*runScratch, RunStats, error) {
	if interleaved {
		return runInterleaved(w)
	}
	return runRecorded(w)
}

// runInterleaved is RunInterleaved returning the scratch with the run's
// log in its recorder.
func runInterleaved(w Workload) (*runScratch, RunStats, error) {
	w = w.withDefaults()
	eng, err := engines.New(w.Engine, w.Objects)
	if err != nil {
		return nil, RunStats{}, err
	}
	sc := getRunScratch(eng)
	rec, rng := sc.rec, sc.rng
	// One generator serves the episode: planFor re-seeds it per thread,
	// then it is re-seeded for the schedule.
	st := &stepper{
		rec:         rec,
		threads:     threadsFor(planFor(w, rng)),
		blocking:    engines.TraitsOf(w.Engine).Blocking,
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
	return sc, RunStats{
		Engine:  w.Engine,
		Commits: st.commits,
		Aborts:  st.aborts,
		Failed:  st.failed,
	}, nil
}
