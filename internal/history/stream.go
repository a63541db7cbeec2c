package history

import (
	"fmt"
	"slices"
)

// Stream ingests a history as it is being produced: events are appended
// one at a time, each validated for well-formedness in O(1) amortized
// time against per-transaction state (the same checks FromEvents performs
// over a complete event log), while the per-transaction views and the
// dense Indexed view are maintained incrementally instead of rebuilt.
//
// A rejected event leaves the stream completely untouched — rejection is
// side-effect-free, so a monitor can refuse one malformed event and keep
// consuming the rest of the stream.
//
// Two views of the accumulated history are available:
//
//   - Live returns the stream's own *History, updated in place by every
//     Append. It is valid only until the next Append and must not be
//     retained or shared across goroutines while the stream is fed; the
//     online monitor (package spec) uses it to run checks at every
//     response event without copying.
//   - History returns a detached immutable snapshot (sharing the
//     already-written event storage), safe to retain, share and check
//     like any FromEvents-built history.
//
// Truncate takes the newest events back off again — every effect of an
// Append is invertible from what the stream holds — which is what lets a
// consumer that explores many continuations of one prefix (the schedule
// explorer's monitor) return to the prefix instead of re-ingesting it.
//
// FromEvents, Prefix and Builder are thin wrappers over this core, so the
// batch and streaming paths validate histories identically. The index is
// maintained as events arrive only for streams built with NewStream (the
// online consumers that query it at every event); a history the batch
// wrappers build is indexed on first use by the same indexer, run over its
// events (indexHistory), so histories that are never checked never pay
// for it.
type Stream struct {
	h *History
	// ix is the incrementally maintained live index, nil for the batch
	// wrappers (whose histories are indexed lazily on first use).
	// ix.TComplete doubles as the registration source for new
	// transactions: a transaction's real-time predecessors are exactly
	// the transactions already t-complete at its first event.
	ix *Indexed

	// objFirst[o] is the index of the event that registered object o, the
	// one whose undoing unregisters it (live-indexed streams only).
	objFirst []int
	// at[i] holds the dense transaction and object indexes of event i
	// (live-indexed streams only), so that a response, a later event of the
	// same transaction and the undoing of any event find them without
	// another map lookup: a Var is hashed once, at its invocation.
	at []eventIdx
	// free holds the views of transactions Truncate removed; the next new
	// transaction takes one over, Ops storage included.
	free []*TxnInfo
	// shared: History has handed out a snapshot aliasing the event and Ops
	// storage, which Truncate must therefore leave behind (see detach).
	shared bool
}

// NewStream returns an empty stream with live incremental indexing.
func NewStream() *Stream {
	s := newStreamOver(&History{})
	s.ix = &Indexed{
		H:      s.h,
		objIdx: make(map[Var]int),
		txnIdx: make(map[TxnID]int),
	}
	s.h.idx = s.ix
	s.h.idxOnce.Do(func() {}) // the live index is the history's index
	return s
}

// newStreamOver wires the validation core onto h without live indexing —
// the batch entry used by FromEvents, Prefix and Builder.
func newStreamOver(h *History) *Stream {
	if h.txns == nil {
		h.txns = make(map[TxnID]*TxnInfo)
	}
	return &Stream{h: h}
}

// replay validates and indexes the events already stored in s.h.events —
// the batch entry into the stream core used by FromEvents and Prefix.
func (s *Stream) replay() error {
	for i, e := range s.h.events {
		t, err := s.check(e)
		if err != nil {
			return fmt.Errorf("history: event %d (%s): %w", i, e, err)
		}
		s.admit(i, e, t)
	}
	return nil
}

// Append validates e against the history observed so far and incorporates
// it. On error the stream is unchanged: the event is not recorded and no
// per-transaction or index state moves.
func (s *Stream) Append(e Event) error {
	t, err := s.check(e)
	if err != nil {
		return fmt.Errorf("history: event %d (%s): %w", len(s.h.events), e, err)
	}
	s.h.events = append(s.h.events, e)
	s.admit(len(s.h.events)-1, e, t)
	return nil
}

// check decides whether e may extend the stream, without mutating. It
// returns e's transaction view, nil when e opens a new transaction.
func (s *Stream) check(e Event) (*TxnInfo, error) {
	if e.Txn == InitTxn {
		return nil, errReservedTxn
	}
	if t := s.h.txns[e.Txn]; t != nil {
		return t, t.checkExtend(e)
	}
	if e.Kind == Res {
		return nil, errOrphanResponse
	}
	return nil, nil
}

// eventIdx is what the index resolved an event to: its transaction's
// dense index and, for a read or write, its object's (-1 otherwise).
type eventIdx struct{ txn, obj int32 }

// admit incorporates the already-validated event e at history index i into
// t, the view check returned: per-transaction view first, then the
// incremental index update.
func (s *Stream) admit(i int, e Event, t *TxnInfo) {
	gi := -1
	if t == nil {
		if n := len(s.free); n > 0 {
			t, s.free = s.free[n-1], s.free[:n-1]
			*t = TxnInfo{ID: e.Txn, First: i, TryCInv: -1, TryCRes: -1, Ops: t.Ops[:0]}
		} else {
			t = &TxnInfo{ID: e.Txn, First: i, TryCInv: -1, TryCRes: -1}
		}
		s.h.txns[e.Txn] = t
		s.h.ids = append(s.h.ids, e.Txn)
		if s.ix != nil {
			gi = s.addTxn(t)
		}
	} else if s.ix != nil {
		gi = int(s.at[t.Last].txn) // the transaction's previous event
	}
	t.applyExtend(i, e)
	if s.ix != nil {
		s.index(i, e, gi, len(t.Ops)-1)
	}
}

// indexHistory indexes a built history: it runs the stream's indexer over
// h's events in order, on h's own transaction views, which already hold
// every later event. That is why index reads of a view only what the event
// at hand fixes, and why the operation is named by a per-transaction
// cursor (next) rather than taken as the view's last. The events were
// validated when h was built and are not checked again.
func indexHistory(h *History) *Indexed {
	n := len(h.ids)
	s := &Stream{h: h, at: make([]eventIdx, 0, len(h.events))}
	s.ix = &Indexed{
		H:      h,
		objIdx: make(map[Var]int),
		TxnIDs: make([]TxnID, 0, n),
		txnIdx: make(map[TxnID]int, n),
		Txns:   make([]IndexedTxn, 0, n),
		RTPred: make([]Bits, 0, n),
	}
	next := make([]int, 0, n) // per transaction, the index of its next operation
	for i, e := range h.events {
		gi, ok := s.ix.txnIdx[e.Txn]
		if !ok {
			gi = s.addTxn(h.txns[e.Txn])
			next = append(next, 0)
		}
		k := next[gi]
		if e.Kind == Inv {
			next[gi]++
		} else {
			k-- // the response completes the operation its invocation opened
		}
		s.index(i, e, gi, k)
	}
	return s.ix
}

// addTxn registers a new transaction with the index. Its real-time
// predecessors are the transactions t-complete right now; transactions
// completing later can never precede it (their last event is at or after
// this one). A slot Truncate vacated is taken over with its Reads, Writes
// and RTPred storage. It returns the transaction's dense index.
func (s *Stream) addTxn(t *TxnInfo) int {
	ix := s.ix
	gi := len(ix.TxnIDs)
	ix.TxnIDs = append(ix.TxnIDs, t.ID)
	ix.txnIdx[t.ID] = gi
	ix.Txns = extend(ix.Txns)
	it := &ix.Txns[gi]
	*it = IndexedTxn{Info: t, Reads: it.Reads[:0], Writes: it.Writes[:0], BadReadOp: -1, First: t.First, TryCInv: -1, TryCRes: -1}
	// The new transaction's real-time predecessors are the transactions
	// t-complete right now, cloned to bitsWords(gi) words: only lower
	// indexes can precede gi.
	ix.RTPred = extend(ix.RTPred)
	ix.RTPred[gi] = ix.TComplete.CloneWordsInto(ix.RTPred[gi], bitsWords(gi))
	return gi
}

// addObj registers v, first named by the event at index i, taking over
// the Writers row of a slot Truncate vacated. It returns the object's
// dense index.
func (s *Stream) addObj(i int, v Var) int {
	ix := s.ix
	oi := len(ix.Objs)
	ix.Objs = append(ix.Objs, v)
	ix.objIdx[v] = oi
	s.objFirst = append(s.objFirst, i)
	ix.Writers = extend(ix.Writers)
	ix.Writers[oi] = ix.Writers[oi][:0]
	return oi
}

// extend lengthens s by one element without clearing it: a slot Truncate
// vacated comes back with the storage its element owned (a never-used one
// is zero).
func extend[T any](s []T) []T {
	if len(s) == cap(s) {
		var zero T
		return append(s, zero)
	}
	return s[:len(s)+1]
}

// index folds event e at index i, of the transaction at dense index gi and
// its operation k, into the index. Of the transaction's view it reads only
// operation k, which e fixes, so a view that already holds later events (a
// built history's, see indexHistory) is indexed as one that does not.
func (s *Stream) index(i int, e Event, gi, k int) {
	ix := s.ix
	it := &ix.Txns[gi]
	it.Last = i
	if e.Kind == Inv {
		oi := -1
		if e.Op == OpRead || e.Op == OpWrite {
			var ok bool
			if oi, ok = ix.objIdx[e.Obj]; !ok {
				oi = s.addObj(i, e.Obj)
			}
		}
		s.at = append(s.at, eventIdx{int32(gi), int32(oi)})
		if e.Op == OpTryCommit {
			it.TryCInv = i
		}
		it.Complete = false
		it.CommitPending = e.Op == OpTryCommit
		return
	}
	// A response: operation k just completed, on the object its invocation
	// resolved.
	op := it.Info.Ops[k]
	oi := int(s.at[op.InvIndex].obj)
	s.at = append(s.at, eventIdx{int32(gi), int32(oi)})
	if op.Kind == OpTryCommit {
		it.TryCRes = i
	}
	it.Complete = true
	it.CommitPending = false
	if e.Out != OutOK {
		it.TComplete = true
		it.Committed = e.Out == OutCommit
		ix.TComplete = ix.TComplete.SetGrow(gi)
	}
	switch {
	case op.Kind == OpRead && op.Out == OutOK:
		indexRead(it, oi, k, op)
	case op.Kind == OpWrite && op.Out == OutOK:
		s.indexWrite(it, gi, oi, op)
	}
}

// indexRead classifies a completed value-returning read of object oi, the
// transaction's operation k: satisfied by the transaction's own latest
// preceding write (consistency-checked, feeding BadReadOp) or external
// (appended to the read summary).
func indexRead(it *IndexedTxn, oi, k int, op Op) {
	for wi := range it.Writes {
		w := &it.Writes[wi]
		if w.Obj == oi {
			if w.Val != op.Val && it.BadReadOp < 0 {
				it.BadReadOp = k
				it.BadReadWant = w.Val
			}
			return
		}
	}
	it.Reads = append(it.Reads, IndexedRead{Obj: oi, Val: op.Val, ResIdx: op.ResIndex, Op: op})
}

// indexWrite folds a completed successful write of object oi into the
// latest-write summary (kept sorted by object index) and the per-object
// writer mask.
func (s *Stream) indexWrite(it *IndexedTxn, gi, oi int, op Op) {
	s.ix.Writers[oi] = s.ix.Writers[oi].SetGrow(gi)
	pos := len(it.Writes)
	for wi := range it.Writes {
		if it.Writes[wi].Obj == oi {
			it.Writes[wi].Val = op.Arg
			return
		}
		if it.Writes[wi].Obj > oi {
			pos = wi
			break
		}
	}
	it.Writes = append(it.Writes, IndexedWrite{})
	copy(it.Writes[pos+1:], it.Writes[pos:])
	it.Writes[pos] = IndexedWrite{Obj: oi, Val: op.Arg}
}

// Truncate undoes the newest events until n remain, leaving the stream —
// events, per-transaction views and live index — exactly as n Appends
// left it; Truncate(0) is the reset. It is for streams built by NewStream
// and panics when n is out of range. Like Append it invalidates what Live
// handed out; snapshots taken with History are unaffected. The storage of
// what it removes (views, index rows) is kept for the Appends that follow.
// Truncate(0) costs O(transactions + objects), whatever the length.
func (s *Stream) Truncate(n int) {
	if n < 0 || n > len(s.h.events) {
		panic(fmt.Sprintf("history: truncate to length %d out of range [0,%d]", n, len(s.h.events)))
	}
	if n == len(s.h.events) {
		return
	}
	if n == 0 {
		s.reset()
		return
	}
	if s.shared {
		s.detach()
	}
	for i := len(s.h.events) - 1; i >= n; i-- {
		s.retract(i, s.h.events[i])
	}
	s.h.events, s.at = s.h.events[:n], s.at[:n]
}

// reset empties the stream wholesale instead of retracting event by
// event: every view goes onto the free list (the first transaction's
// last, so that the next stream's first transaction takes it over),
// the maps are cleared, and every row and list is re-sliced to nothing
// with its storage kept. Storage a snapshot aliases is left to it.
func (s *Stream) reset() {
	if s.shared {
		s.h.events = make([]Event, 0, cap(s.h.events))
		for _, t := range s.h.txns {
			t.Ops = nil
		}
		s.shared = false
	}
	for i := len(s.h.ids) - 1; i >= 0; i-- {
		s.free = append(s.free, s.h.txns[s.h.ids[i]])
	}
	clear(s.h.txns)
	s.h.events, s.h.ids, s.at, s.objFirst = s.h.events[:0], s.h.ids[:0], s.at[:0], s.objFirst[:0]
	ix := s.ix
	clear(ix.objIdx)
	clear(ix.txnIdx)
	ix.Objs, ix.TxnIDs, ix.Txns = ix.Objs[:0], ix.TxnIDs[:0], ix.Txns[:0]
	ix.RTPred, ix.Writers, ix.TComplete = ix.RTPred[:0], ix.Writers[:0], ix.TComplete[:0]
}

// detach moves the stream onto event and Ops storage of its own. A
// snapshot aliases both on the promise that the stream only ever writes
// past what the snapshot sees; un-completing an operation and overwriting
// a truncated tail would break it.
func (s *Stream) detach() {
	s.h.events = append(make([]Event, 0, cap(s.h.events)), s.h.events...)
	for _, t := range s.h.txns {
		t.Ops = append(make([]Op, 0, cap(t.Ops)), t.Ops...)
	}
	s.shared = false
}

// retract undoes admit for the stream's newest event e, at index i. Each
// case inverts the matching one of applyExtend and index from what is
// still held: a transaction's previous event is its pending operation's
// invocation (undoing a response) or the response before it (undoing an
// invocation), and a transaction or object the event registered is the
// newest dense index, because both orders are first-appearance orders.
func (s *Stream) retract(i int, e Event) {
	ix := s.ix
	gi, oi := int(s.at[i].txn), int(s.at[i].obj)
	it := &ix.Txns[gi]
	t := it.Info
	last := len(t.Ops) - 1
	op := &t.Ops[last]
	if e.Kind == Res {
		switch {
		case e.Out != OutOK:
			it.TComplete, it.Committed = false, false
			ix.TComplete.Clear(gi)
			ix.TComplete = ix.TComplete.Trimmed()
		case op.Kind == OpRead:
			// External (the newest summary entry) or satisfied by an own
			// write, which may have made it the first bad read.
			if n := len(it.Reads); n > 0 && it.Reads[n-1].ResIdx == i {
				it.Reads = it.Reads[:n-1]
			} else if it.BadReadOp == last {
				it.BadReadOp, it.BadReadWant = -1, 0
			}
		case op.Kind == OpWrite:
			s.retractWrite(it, gi, oi, t.Ops[:last])
		}
		op.Pending, op.Out, op.Val, op.ResIndex = true, 0, 0, -1
		if op.Kind == OpTryCommit {
			t.TryCRes = -1
		}
		t.Last = op.InvIndex
		it.Last, it.TryCRes = t.Last, t.TryCRes
		it.Complete = false
		it.CommitPending = op.Kind == OpTryCommit
		return
	}
	if op.Kind == OpTryCommit {
		t.TryCInv = -1
	}
	t.Ops = t.Ops[:last]
	if o := len(ix.Objs) - 1; o >= 0 && s.objFirst[o] == i {
		delete(ix.objIdx, ix.Objs[o])
		ix.Objs, ix.Writers, s.objFirst = ix.Objs[:o], ix.Writers[:o], s.objFirst[:o]
	}
	if last == 0 {
		// The transaction's first event: the transaction goes too.
		delete(s.h.txns, e.Txn)
		delete(ix.txnIdx, e.Txn)
		s.h.ids = s.h.ids[:gi]
		ix.TxnIDs, ix.Txns, ix.RTPred = ix.TxnIDs[:gi], ix.Txns[:gi], ix.RTPred[:gi]
		s.free = append(s.free, t)
		return
	}
	t.Last = t.Ops[last-1].ResIndex
	it.Last, it.TryCInv = t.Last, t.TryCInv
	it.Complete = true
	it.CommitPending = false
}

// retractWrite undoes indexWrite for a write of object oi by transaction
// gi: the latest-write entry falls back to the latest successful write
// among the remaining (all completed) operations, or goes with the Writers
// bit.
func (s *Stream) retractWrite(it *IndexedTxn, gi, oi int, ops []Op) {
	wi := 0
	for it.Writes[wi].Obj != oi {
		wi++
	}
	for p := len(ops) - 1; p >= 0; p-- {
		if ops[p].Kind == OpWrite && ops[p].Out == OutOK && int(s.at[ops[p].InvIndex].obj) == oi {
			it.Writes[wi].Val = ops[p].Arg
			return
		}
	}
	it.Writes = append(it.Writes[:wi], it.Writes[wi+1:]...)
	s.ix.Writers[oi].Clear(gi)
	s.ix.Writers[oi] = s.ix.Writers[oi].Trimmed()
}

// Grow makes room for n more events, so that the next n Appends store
// them without reallocating: a consumer that knows how many it is about to
// append (a session rebuilding its stream behind a retirement checkpoint)
// sizes the storage once.
func (s *Stream) Grow(n int) {
	s.h.events = slices.Grow(s.h.events, n)
	if s.ix != nil {
		s.at = slices.Grow(s.at, n)
	}
}

// Len returns the number of events appended so far.
func (s *Stream) Len() int { return len(s.h.events) }

// NumTxns returns the number of transactions observed so far.
func (s *Stream) NumTxns() int { return len(s.h.ids) }

// Events returns a copy of the event sequence observed so far.
func (s *Stream) Events() []Event { return append([]Event(nil), s.h.events...) }

// Live returns the stream's live history view: the same *History value,
// updated in place by every Append, with its incrementally maintained
// index behind History.Index. The view is valid until the next Append; it
// must not be retained, and not shared across goroutines while the stream
// is being fed. Use History for a detached snapshot.
func (s *Stream) Live() *History { return s.h }

// History returns an immutable snapshot of the history observed so far.
// The snapshot shares the already-written event storage with the stream
// (appending more events never mutates it, and Truncate moves the stream
// off it first) and costs O(transactions), not O(events); it is indexed on
// first use, like any batch-built history.
func (s *Stream) History() *History {
	s.shared = true
	evs := s.h.events
	h := &History{
		events: evs[:len(evs):len(evs)],
		ids:    append([]TxnID(nil), s.h.ids...),
		txns:   make(map[TxnID]*TxnInfo, len(s.h.ids)),
	}
	for id, t := range s.h.txns {
		ct := *t
		if n := len(t.Ops); n > 0 && t.Ops[n-1].Pending {
			// The pending tail operation is completed in place by a later
			// response; detach it.
			ct.Ops = append([]Op(nil), t.Ops...)
		} else {
			ct.Ops = t.Ops[:len(t.Ops):len(t.Ops)]
		}
		h.txns[id] = &ct
	}
	return h
}
