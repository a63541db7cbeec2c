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
// Three consumers read the log, each by pulling from it: History
// snapshots the events as a batch history, AppendTo feeds them to a
// history.Stream (the certify path, which validates and indexes an
// episode in one pass over a reused stream), and AppendEvents copies a
// range of the log into storage the caller reuses (a monitor fed from
// that copy — the schedule explorer after each step, harness.RunMonitored
// after the run — latches a violation at the event that caused it, by
// the prefix closure of Corollary 2). The capture path runs no caller
// code: it appends under the mutex and returns, so a transaction's
// position in the real-time order of H (its t-completion preceding
// another's first event) is decided exactly where the engine decided it.
package recorder

import (
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

	mu  sync.Mutex
	evs []history.Event
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
// untouched). It must not be called while transactions are in flight.
// The event buffer is reused: History copies.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = r.evs[:0]
}

// Restore returns the recorder to an earlier point of a run: the log
// truncated to its first n events, eng as the engine, and the next Begin
// numbered lastID+1. With the engine and the transactions in flight
// restored to that point too (stm.Forkable, Resume), the calls that
// follow record exactly the events they recorded from there the first
// time — identifiers included. No transaction may be in flight in
// another goroutine. Restore(eng, 0, 0) leaves the recorder as New(eng)
// would return it, except for its event buffer.
func (r *Recorder) Restore(eng stm.Engine, n int, lastID history.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = r.evs[:n]
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
	r.evs = append(r.evs, e)
	r.mu.Unlock()
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
