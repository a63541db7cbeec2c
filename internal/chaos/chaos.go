// Package chaos is the repository's deterministic fault-injection layer:
// seedable fault schedules for the three stages of the certification
// pipeline, used by the fault mode of the checkfarm soak (stmbench soak
// -faults) to pin the soundness-under-chaos invariant (faults may turn
// verdicts into honest undecided or reported-and-rejected input, but
// never flip OK↔violation against a fault-free differential run).
//
// Three injection points, one per pipeline stage:
//
//   - Engine faults (Wrap): a wrapping stm.Engine that injects spurious
//     aborts and delayed/torn commit windows. Both are legal TM behavior —
//     an engine may abort any transaction at any time, and a commit's
//     effect may linearize anywhere inside its invocation–response window
//     — so the recorded histories stay histories in the paper's Section 2
//     sense, just crashier ones: the checker must still decide them
//     soundly. Thread kills (a transaction abandoned mid-flight, leaving
//     a live transaction in the history) belong to the workload runner
//     (harness.Faults) and are gated by the engine's KillSafe trait
//     (engines.TraitsOf): only engines whose transactions hold no locks
//     outside Commit can be abandoned without deadlocking the other
//     threads.
//
//   - Stream faults (JunkSource): ill-formed events — duplicated
//     responses, orphaned responses, reserved transaction ids, operations
//     after t-completion, doubled invocations — that a well-formed
//     history.Stream / spec.Monitor must reject side-effect-free, plus
//     truncation (the driver simply stops feeding). Every event produced
//     by JunkSource is guaranteed-rejected against the stream state it
//     shadows, so the soak can assert an exact injected == rejected
//     accounting.
//
//   - Farm faults (FarmFaults, via context): worker panics and slow
//     shards injected into internal/checkfarm's pool through the context,
//     exercising the farm's per-shard panic recovery, bounded retry with
//     exponential backoff, and reported degradation.
//
// Every fault decision is a pure function of the configured seed and the
// decision point (transaction serial, operation index, shard index), so a
// fault schedule replays exactly under the deterministic stepper and
// per-transaction under real goroutines.
package chaos

import (
	"math/rand"
	"runtime"
	"sync/atomic"

	"duopacity/internal/lazyrand"
	"duopacity/internal/stm"
)

// Profile configures the engine-fault injector. Probabilities are in
// [0,1]; the zero Profile injects nothing (and Wrap with a zero Profile
// adds only a per-operation branch, the "disabled fault hooks" cost the
// PR 7 benchmark gate pins).
type Profile struct {
	// SpuriousAbort is the per-operation probability that the wrapper
	// aborts the transaction instead of forwarding the operation — the
	// engine-may-abort-anytime liberty of the TM model.
	SpuriousAbort float64
	// CommitDelay is the per-commit probability of stretching the commit's
	// invocation–response window with scheduler yields before and after
	// the inner commit (a delayed/torn commit: other threads run while the
	// commit is pending).
	CommitDelay float64
	// Seed seeds the fault schedule. Decisions are drawn from a
	// per-transaction generator keyed by (Seed, transaction serial), so
	// they do not depend on cross-thread interleaving.
	Seed int64
}

// Engine wraps an inner stm.Engine with the engine-fault injector. It
// preserves Name, so the wrapped engine has the inner one's traits.
type Engine struct {
	inner stm.Engine
	prof  Profile
	seq   atomic.Int64
	// aborts and delays count the faults injected; nothing in a recorded
	// history tells an injected commit delay from a real one.
	aborts, delays atomic.Int64
}

var _ stm.Engine = (*Engine)(nil)

// Wrap returns eng with the fault profile injected around every
// transaction.
func Wrap(eng stm.Engine, prof Profile) *Engine {
	return &Engine{inner: eng, prof: prof}
}

// Name implements stm.Engine (the inner engine's name).
func (e *Engine) Name() string { return e.inner.Name() }

// Begin implements stm.Engine. Each transaction draws its fault schedule
// from a generator keyed by (profile seed, transaction serial).
func (e *Engine) Begin() stm.Txn {
	t := &txn{e: e, inner: e.inner.Begin()}
	if e.prof.SpuriousAbort > 0 || e.prof.CommitDelay > 0 {
		serial := e.seq.Add(1)
		t.rng = lazyrand.New(int64(splitmix64(uint64(e.prof.Seed) ^ uint64(serial)*0x9e3779b97f4a7c15)))
	}
	return t
}

type txn struct {
	e     *Engine
	inner stm.Txn
	rng   *rand.Rand
	dead  bool
}

// strike reports whether the current operation spuriously aborts; when it
// does, the inner transaction is aborted first so the engine's state is
// exactly that of a real abort.
func (t *txn) strike() bool {
	if t.dead {
		return true
	}
	if t.rng != nil && t.rng.Float64() < t.e.prof.SpuriousAbort {
		t.dead = true
		t.inner.Abort()
		t.e.aborts.Add(1)
		return true
	}
	return false
}

func (t *txn) Read(obj int) (int64, error) {
	if t.strike() {
		return 0, stm.ErrAborted
	}
	return t.inner.Read(obj)
}

func (t *txn) Write(obj int, v int64) error {
	if t.strike() {
		return stm.ErrAborted
	}
	return t.inner.Write(obj, v)
}

func (t *txn) Commit() error {
	if t.strike() {
		return stm.ErrAborted
	}
	if t.rng != nil && t.rng.Float64() < t.e.prof.CommitDelay {
		// Delayed/torn commit: stretch the tryC window so other threads
		// observe a commit-pending transaction (under real goroutines; the
		// yields are no-ops under the single-threaded stepper).
		t.e.delays.Add(1)
		runtime.Gosched()
		err := t.inner.Commit()
		runtime.Gosched()
		t.dead = true
		return err
	}
	t.dead = true
	return t.inner.Commit()
}

func (t *txn) Abort() {
	if t.dead {
		return
	}
	t.dead = true
	t.inner.Abort()
}

// splitmix64 is the SplitMix64 mixer, used to decorrelate per-transaction
// fault schedules from neighbouring serials.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
