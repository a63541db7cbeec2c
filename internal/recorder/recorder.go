// Package recorder instruments any stm.Engine so that concurrent runs
// produce history.History values — the histories of the paper's Section 2
// model, the objects every criterion of package spec judges.
//
// Every t-operation is bracketed by an invocation event appended before the
// engine is called and a response event appended after it returns, under a
// single mutex that linearizes event capture. Because each engine
// linearizes an operation's effect inside its invocation–response window,
// the recorded event order is a faithful history of the execution in the
// paper's model: reads return values, aborts surface as A_k responses on
// the aborting operation, and commits as tryC_k -> C_k. The recorded
// histories are well-formed by construction (each transaction's events
// form the sequential pattern of Section 2: at most one pending operation,
// nothing after t-completion), which every consumer re-validates
// defensively as it ingests the log.
//
// Four consumers sit on the capture path: History snapshots the events
// as a batch history, AppendTo feeds them to a history.Stream (the
// certify path, which validates and indexes an episode in one pass over
// a reused stream), AppendEvents copies a range of the log into storage
// the caller reuses (the schedule explorer, harness.ExplorePlanCtx, reads
// each step's new events after the step returns and feeds its monitor
// from that copy, latching violations mid-schedule by the prefix closure
// of Corollary 2), and Tap exposes each event the moment it is
// linearized — the hook through which spec.Monitor certifies an
// execution while it runs (harness.RunMonitored). A transaction's
// position in the real-time order of H (its t-completion preceding
// another's first event) is therefore decided exactly where the engine
// decided it.
package recorder

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"duopacity/internal/history"
	"duopacity/internal/stm"
)

// VarName maps an object index to the t-object name used in recorded
// histories ("X0", "X1", ...). It runs on every recorded read and write,
// so the small indexes every workload uses come from a table.
func VarName(obj int) history.Var {
	if obj >= 0 && obj < len(varNames) {
		return varNames[obj]
	}
	return history.Var("X" + strconv.Itoa(obj))
}

var varNames = func() (t [256]history.Var) {
	for i := range t {
		t[i] = history.Var("X" + strconv.Itoa(i))
	}
	return t
}()

// Recorder wraps an engine and captures histories.
type Recorder struct {
	eng    stm.Engine
	nextID atomic.Int64

	mu     sync.Mutex
	evs    []history.Event
	tap    func(history.Event)
	tapErr error
}

// New returns a Recorder around eng.
func New(eng stm.Engine) *Recorder {
	return &Recorder{eng: eng}
}

// Engine returns the wrapped engine.
func (r *Recorder) Engine() stm.Engine { return r.eng }

// Begin starts a recorded transaction with a fresh transaction identifier.
func (r *Recorder) Begin() *Txn { return r.BeginInto(new(Txn)) }

// BeginInto is Begin into storage the caller owns, which must not hold a
// transaction still in use.
func (r *Recorder) BeginInto(into *Txn) *Txn {
	*into = Txn{r: r, inner: r.eng.Begin(), id: history.TxnID(r.nextID.Add(1))}
	return into
}

// Reset discards the events recorded so far (the engine's state is left
// untouched) and clears any recorded tap error. It must not be called
// while transactions are in flight. A registered tap is kept but is not
// informed of the discard. The event buffer is reused: History copies.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = r.evs[:0]
	r.tapErr = nil
}

// Restore returns the recorder to an earlier point of a run: the log
// truncated to its first n events, eng as the engine, and the next Begin
// numbered lastID+1. With the engine and the transactions in flight
// restored to that point too (stm.Forkable, Resume), the calls that
// follow record exactly the events they recorded from there the first
// time — identifiers included. A tap error is cleared, a registered tap
// is kept and is not informed, and no transaction may be in flight in
// another goroutine. Restore(eng, 0, 0) leaves the recorder as New(eng)
// would return it, except for its event buffer and its tap.
func (r *Recorder) Restore(eng stm.Engine, n int, lastID history.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = r.evs[:n]
	r.tapErr = nil
	r.eng = eng
	r.nextID.Store(int64(lastID))
}

// LastID returns the identifier of the transaction begun last, 0 before
// the first.
func (r *Recorder) LastID() history.TxnID { return history.TxnID(r.nextID.Load()) }

// Resume makes into, storage the caller owns, a recorded transaction that
// continues inner — an engine transaction in flight, restored by a fork —
// under identifier id, and returns it. The transaction must not have
// t-completed in the log.
func (r *Recorder) Resume(into *Txn, id history.TxnID, inner stm.Txn) *Txn {
	*into = Txn{r: r, inner: inner, id: id}
	return into
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.evs)
}

// Tap registers fn to observe every event at the moment it is recorded,
// called synchronously under the recorder's capture mutex — so fn sees
// the events in exactly the linearized order the recorded history will
// contain, with no two calls concurrent. This is the live-monitor hook:
// attach a spec.Monitor's Append (whose single-goroutine requirement the
// mutex discharges) and the execution is certified while it runs instead
// of replaying a materialized history afterwards. Events recorded before
// Tap are not replayed; pass nil to detach. Keep fn cheap: it runs inside
// every transaction's operation window. fn must not call back into the
// Recorder (History, Reset, Tap, or any transaction operation) — it runs
// while the capture mutex is held and would self-deadlock.
//
// A panic in fn does not corrupt the recorder: the capture mutex is
// released, the event that triggered the panic stays recorded, the tap is
// detached (no further calls), and the panic is surfaced through
// TapError. Recording continues and the captured history stays
// well-formed.
func (r *Recorder) Tap(fn func(history.Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tap = fn
}

// TapError returns the first panic recovered from a tap callback, or nil.
// The panicking tap was detached at the point of failure; events recorded
// after it are captured but unobserved, so consumers of a tap-driven
// verdict (e.g. an online monitor) must treat a non-nil TapError as
// degradation of that verdict, not of the recorded history.
func (r *Recorder) TapError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tapErr
}

// History snapshots the recorded events as a history. Transactions still
// in flight appear with pending operations, which is well-formed. The
// history is built under the capture mutex from FromEvents' own copy of
// the log, so the events are copied once; a consumer that checks what it
// gets and can reuse storage takes AppendTo instead.
func (r *Recorder) History() *history.History {
	r.mu.Lock()
	h, err := history.FromEvents(r.evs)
	r.mu.Unlock()
	if err != nil {
		// The recorder only appends matched, well-ordered events.
		panic("recorder: recorded history malformed: " + err.Error())
	}
	return h
}

// AppendTo appends the recorded events to s, under the capture mutex.
// With s fresh or just reset (Truncate(0)), s then holds the history
// History would return, indexed as it was appended when s was built by
// NewStream. The error is s's rejection of an event, which the
// recorder's own log never earns.
func (r *Recorder) AppendTo(s *history.Stream) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Grow(len(r.evs))
	for _, e := range r.evs {
		if err := s.Append(e); err != nil {
			return err
		}
	}
	return nil
}

// AppendEvents appends the events recorded from index from on to dst and
// returns it, under the capture mutex.
func (r *Recorder) AppendEvents(dst []history.Event, from int) []history.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst, r.evs[from:]...)
}

func (r *Recorder) append(e history.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, e)
	if r.tap != nil {
		r.callTap(e)
	}
}

// callTap invokes the tap under the capture mutex, recovering a panic so
// a faulty observer cannot leave the mutex locked or the history torn:
// the event stays recorded, the tap is detached, and the panic value is
// kept for TapError.
func (r *Recorder) callTap(e history.Event) {
	defer func() {
		if rec := recover(); rec != nil {
			if r.tapErr == nil {
				r.tapErr = fmt.Errorf("recorder: tap panicked on event %v: %v", e, rec)
			}
			r.tap = nil
		}
	}()
	r.tap(e)
}

// Txn is a recorded transaction. It mirrors stm.Txn; each operation emits
// its invocation and response events around the inner engine call.
type Txn struct {
	r     *Recorder
	inner stm.Txn
	id    history.TxnID
	// done is set once the recorded transaction is t-complete (an
	// operation returned A_k, or Commit/Abort finished); later calls
	// return ErrAborted without recording events, keeping the history
	// well-formed.
	done bool
}

var _ stm.Txn = (*Txn)(nil)

// ID returns the recorded transaction identifier.
func (t *Txn) ID() history.TxnID { return t.id }

// Inner returns the engine transaction t records.
func (t *Txn) Inner() stm.Txn { return t.inner }

// Read implements stm.Txn.
func (t *Txn) Read(obj int) (int64, error) {
	if t.done {
		return 0, stm.ErrAborted
	}
	x := VarName(obj)
	t.r.append(history.Event{Kind: history.Inv, Op: history.OpRead, Txn: t.id, Obj: x})
	v, err := t.inner.Read(obj)
	if err != nil {
		t.done = true
		t.r.append(history.Event{Kind: history.Res, Op: history.OpRead, Txn: t.id, Obj: x, Out: history.OutAbort})
		return 0, stm.ErrAborted
	}
	t.r.append(history.Event{Kind: history.Res, Op: history.OpRead, Txn: t.id, Obj: x, Val: history.Value(v), Out: history.OutOK})
	return v, nil
}

// Write implements stm.Txn.
func (t *Txn) Write(obj int, v int64) error {
	if t.done {
		return stm.ErrAborted
	}
	x := VarName(obj)
	t.r.append(history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: t.id, Obj: x, Arg: history.Value(v)})
	err := t.inner.Write(obj, v)
	if err != nil {
		t.done = true
		t.r.append(history.Event{Kind: history.Res, Op: history.OpWrite, Txn: t.id, Obj: x, Arg: history.Value(v), Out: history.OutAbort})
		return stm.ErrAborted
	}
	t.r.append(history.Event{Kind: history.Res, Op: history.OpWrite, Txn: t.id, Obj: x, Arg: history.Value(v), Out: history.OutOK})
	return nil
}

// Commit implements stm.Txn.
func (t *Txn) Commit() error {
	if t.done {
		return stm.ErrAborted
	}
	t.done = true
	t.r.append(history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: t.id})
	err := t.inner.Commit()
	if err != nil {
		t.r.append(history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: t.id, Out: history.OutAbort})
		return stm.ErrAborted
	}
	t.r.append(history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: t.id, Out: history.OutCommit})
	return nil
}

// Abort implements stm.Txn.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.r.append(history.Event{Kind: history.Inv, Op: history.OpTryAbort, Txn: t.id})
	t.inner.Abort()
	t.r.append(history.Event{Kind: history.Res, Op: history.OpTryAbort, Txn: t.id, Out: history.OutAbort})
}

// Atomically mirrors stm.Atomically over recorded transactions: each retry
// is a fresh recorded transaction, as in the paper's model where an aborted
// transaction is never resumed.
//
// Not inlined, for the reason stm.Atomically is not.
//
//go:noinline
func (r *Recorder) Atomically(fn func(*Txn) error) error {
	return stm.AtomicallyN(r.Begin, stm.MaxAttempts, fn)
}
