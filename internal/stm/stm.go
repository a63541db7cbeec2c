// Package stm defines the engine-neutral software transactional memory
// interface shared by the engines under internal/stm/... and the tooling
// that records and certifies their histories.
//
// A TM manages a fixed array of t-objects addressed by index, each holding
// an int64 and starting at 0 (matching the paper's T_0 writing the initial
// value to every object). Engines implement Engine/Txn; user code runs
// transactions through Atomically, which retries aborted attempts.
//
// The engines shipped with this repository:
//
//   - tl2:   Transactional Locking II — global version clock, per-object
//     versioned write locks, deferred write-back (Dice, Shalev, Shavit).
//   - norec: NOrec — single global sequence lock, value-based validation,
//     deferred write-back (Dalessandro, Spear, Scott).
//   - dstm:  DSTM-style obstruction-free engine — per-object locators,
//     CAS acquisition, invisible validated reads; bare dstm kills a
//     conflicting owner (Herlihy, Luchangco, Moir, Scherer).
//   - etl:   encounter-time locking with in-place writes and an undo log
//     (eager, TinySTM-flavoured); optional value-based read validation.
//   - gl:    a single global lock around each transaction — serial,
//     abort-free baseline.
//   - ple:   a pessimistic, abort-free engine with in-place writes and
//     unvalidated reads, reproducing the non-deferred-update signature the
//     paper attributes to pessimistic STMs [Afek, Matveev, Shavit].
//   - pdur:  parallel deferred-update certification — t-objects are
//     partitioned across independent seqlock-protected certifiers, so
//     commits touching disjoint partitions proceed in parallel
//     (following the SCert/PaT line of arXiv:1312.0742).
//
// The CM-capable engines (tl2, norec, dstm, etl, etl+v, pdur) also accept
// a contention-management policy from internal/stm/cm, selected by the
// "engine+policy" names that internal/stm/engines parses ("tl2+karma",
// "pdur+backoff", ...). What the tooling knows about an engine — whether
// it takes a policy, defers its updates, survives an abandoned
// transaction, how it blocks and which of its steps commute — is its row
// in that registry (engines.TraitsOf), and nowhere else.
//
// Every engine is also Forkable: its whole state — t-objects, metadata
// and the transactions in flight — can be copied into a second instance,
// which is how the schedule explorer (internal/harness) keeps one world
// per decision point instead of re-executing a schedule's prefix. The
// contract has three rules:
//
//   - Single goroutine. Fork reads the source and writes the destination
//     with plain loads and stores: no other goroutine may use either
//     engine, or any of their transactions, while it runs, and no
//     operation may be in flight.
//   - Deep copy. Afterwards the two engines share nothing mutable: running
//     transactions on either side changes nothing the other observes.
//     Only state that can never change again (a dstm descriptor that has
//     committed or aborted, and the locators it owns) may be shared.
//   - Pool rule. A copy target handed to Fork must be a transaction nobody
//     else holds. A transaction that has ended — Commit or Abort returned,
//     or an operation returned ErrAborted — may already sit in its
//     engine's pool (tl2, norec and pdur recycle descriptors through a
//     sync.Pool), where a later Begin hands it out again; reusing it as a
//     copy target would give one descriptor to two threads.
package stm

import "errors"

// ErrAborted is returned by Read, Write and Commit when the transaction
// has aborted; the caller must discard the transaction (and may retry with
// a fresh one, which Atomically automates).
var ErrAborted = errors.New("stm: transaction aborted")

// Engine is a software transactional memory over a fixed set of t-objects.
// Implementations must be safe for concurrent use.
type Engine interface {
	// Name identifies the engine (e.g. "tl2").
	Name() string
	// Objects returns the number of t-objects managed.
	Objects() int
	// Begin starts a transaction. Every transaction must end with Commit
	// or Abort.
	Begin() Txn
}

// Forkable is an Engine whose state can be copied into another instance
// of the same engine (see the package comment for the contract).
type Forkable interface {
	Engine
	// Fork makes dst an exact copy of the engine together with its live
	// transactions txns, and returns dst — or, when dst is nil, a new
	// engine of the same configuration. dst must be such an engine, one
	// this engine type returned earlier. For each non-nil txns[i], out[i]
	// receives its copy, a transaction of dst; a non-nil out[i] on entry
	// is a transaction of dst whose storage the copy reuses (see the pool
	// rule), and out[i] is left as it is where txns[i] is nil. Every
	// transaction of the engine that has begun and not ended must be among
	// txns: those left out are not carried over.
	Fork(dst Engine, txns, out []Txn) Engine
}

// Txn is a transaction in progress. A transaction is not safe for
// concurrent use by multiple goroutines. After any method returns
// ErrAborted — or after Commit or Abort returns — the transaction is dead
// and every later call returns ErrAborted.
type Txn interface {
	// Read returns the transaction's view of object obj.
	Read(obj int) (int64, error)
	// Write records (or applies, in eager engines) a write of v to obj.
	Write(obj int, v int64) error
	// Commit attempts to commit: nil means the transaction's effects are
	// durable and visible; ErrAborted means nothing took effect (in eager
	// engines, all in-place effects were rolled back).
	Commit() error
	// Abort aborts the transaction, rolling back any in-place effects.
	// Abort is idempotent and safe after an ErrAborted.
	Abort()
}

// MaxAttempts bounds Atomically's retry loop; exceeding it returns
// ErrAborted to the caller rather than spinning forever.
const MaxAttempts = 1 << 20

// Atomically runs fn inside transactions of e until one commits. If fn
// returns a non-nil error the attempt is aborted and the error is returned
// without retrying (user-level errors are not conflicts). A nil return
// means fn's final attempt committed.
//
// Not inlined: a generic call that reaches another package through an
// inlined body loses its escape information there, and e.Begin would then
// be heap-allocated on every call.
//
//go:noinline
func Atomically(e Engine, fn func(Txn) error) error {
	return AtomicallyN(e.Begin, MaxAttempts, fn)
}

// AtomicallyN is Atomically with an explicit attempt bound, over the
// transactions begin starts — an engine's Begin, or a wrapper's such as
// the history recorder's, so every retry loop is this one.
func AtomicallyN[T Txn](begin func() T, attempts int, fn func(T) error) error {
	for i := 0; i < attempts; i++ {
		tx := begin()
		err := fn(tx)
		switch {
		case err == nil:
			if cerr := tx.Commit(); cerr == nil {
				return nil
			}
			// Conflict at commit: retry.
		case errors.Is(err, ErrAborted):
			tx.Abort()
			// Conflict during the body: retry.
		default:
			tx.Abort()
			return err
		}
	}
	return ErrAborted
}
