package history

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// equalIndexes structurally compares two indexed views (an index the
// stream's indexer built against the frozen reference construction).
func equalIndexes(a, b *Indexed) error {
	if len(a.Objs) != len(b.Objs) {
		return fmt.Errorf("objs: %v vs %v", a.Objs, b.Objs)
	}
	for i := range a.Objs {
		if a.Objs[i] != b.Objs[i] {
			return fmt.Errorf("objs[%d]: %v vs %v", i, a.Objs[i], b.Objs[i])
		}
		if a.objIdx[a.Objs[i]] != b.objIdx[b.Objs[i]] {
			return fmt.Errorf("objIdx[%v]: %d vs %d", a.Objs[i], a.objIdx[a.Objs[i]], b.objIdx[b.Objs[i]])
		}
	}
	if len(a.TxnIDs) != len(b.TxnIDs) {
		return fmt.Errorf("txns: %v vs %v", a.TxnIDs, b.TxnIDs)
	}
	for i := range a.TxnIDs {
		if a.TxnIDs[i] != b.TxnIDs[i] || a.txnIdx[a.TxnIDs[i]] != b.txnIdx[b.TxnIDs[i]] {
			return fmt.Errorf("txn ids at %d: %v vs %v", i, a.TxnIDs[i], b.TxnIDs[i])
		}
		at, bt := &a.Txns[i], &b.Txns[i]
		if at.Info.ID != bt.Info.ID {
			return fmt.Errorf("T%v: info mismatch", a.TxnIDs[i])
		}
		if len(at.Reads) != len(bt.Reads) {
			return fmt.Errorf("T%v reads: %v vs %v", a.TxnIDs[i], at.Reads, bt.Reads)
		}
		for j := range at.Reads {
			if at.Reads[j] != bt.Reads[j] {
				return fmt.Errorf("T%v read %d: %+v vs %+v", a.TxnIDs[i], j, at.Reads[j], bt.Reads[j])
			}
		}
		if len(at.Writes) != len(bt.Writes) {
			return fmt.Errorf("T%v writes: %v vs %v", a.TxnIDs[i], at.Writes, bt.Writes)
		}
		for j := range at.Writes {
			if at.Writes[j] != bt.Writes[j] {
				return fmt.Errorf("T%v write %d: %+v vs %+v", a.TxnIDs[i], j, at.Writes[j], bt.Writes[j])
			}
		}
		if at.BadReadOp != bt.BadReadOp || at.BadReadWant != bt.BadReadWant {
			return fmt.Errorf("T%v bad read: (%d,%d) vs (%d,%d)",
				a.TxnIDs[i], at.BadReadOp, at.BadReadWant, bt.BadReadOp, bt.BadReadWant)
		}
		if at.First != bt.First || at.Last != bt.Last ||
			at.TryCInv != bt.TryCInv || at.TryCRes != bt.TryCRes {
			return fmt.Errorf("T%v positions: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", a.TxnIDs[i],
				at.First, at.Last, at.TryCInv, at.TryCRes, bt.First, bt.Last, bt.TryCInv, bt.TryCRes)
		}
		if at.Committed != bt.Committed || at.CommitPending != bt.CommitPending ||
			at.TComplete != bt.TComplete || at.Complete != bt.Complete {
			return fmt.Errorf("T%v flags differ", a.TxnIDs[i])
		}
	}
	if len(a.RTPred) != len(b.RTPred) {
		return fmt.Errorf("RTPred rows: %d vs %d", len(a.RTPred), len(b.RTPred))
	}
	for i := range a.RTPred {
		if !a.RTPred[i].Equal(b.RTPred[i]) {
			return fmt.Errorf("RTPred[%d]: %x vs %x", i, a.RTPred[i], b.RTPred[i])
		}
	}
	if len(a.Writers) != len(b.Writers) {
		return fmt.Errorf("Writers rows: %d vs %d", len(a.Writers), len(b.Writers))
	}
	for o := range a.Writers {
		if !a.Writers[o].Equal(b.Writers[o]) {
			return fmt.Errorf("Writers[%d]: %x vs %x", o, a.Writers[o], b.Writers[o])
		}
	}
	if !a.TComplete.Equal(b.TComplete) {
		return fmt.Errorf("TComplete: %x vs %x", a.TComplete, b.TComplete)
	}
	return nil
}

// equalHistories compares events and per-transaction views.
func equalHistories(a, b *History) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("len: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return fmt.Errorf("event %d: %v vs %v", i, a.At(i), b.At(i))
		}
	}
	if len(a.ids) != len(b.ids) {
		return fmt.Errorf("ids: %v vs %v", a.ids, b.ids)
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			return fmt.Errorf("ids[%d]: %v vs %v", i, a.ids[i], b.ids[i])
		}
		ta, tb := a.txns[a.ids[i]], b.txns[b.ids[i]]
		if ta.First != tb.First || ta.Last != tb.Last ||
			ta.TryCInv != tb.TryCInv || ta.TryCRes != tb.TryCRes {
			return fmt.Errorf("T%v positions differ", a.ids[i])
		}
		if len(ta.Ops) != len(tb.Ops) {
			return fmt.Errorf("T%v ops: %d vs %d", a.ids[i], len(ta.Ops), len(tb.Ops))
		}
		for j := range ta.Ops {
			if ta.Ops[j] != tb.Ops[j] {
				return fmt.Errorf("T%v op %d: %+v vs %+v", a.ids[i], j, ta.Ops[j], tb.Ops[j])
			}
		}
	}
	return nil
}

// checkStreamAgainstBatch verifies that the stream's live view and
// snapshot both match the batch constructions for the same events.
func checkStreamAgainstBatch(s *Stream) error {
	batch, err := FromEvents(s.Events())
	if err != nil {
		return fmt.Errorf("accepted events rejected by FromEvents: %w", err)
	}
	if err := equalHistories(s.Live(), batch); err != nil {
		return fmt.Errorf("live view: %w", err)
	}
	snap := s.History()
	if err := equalHistories(snap, batch); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// The live index, and the snapshot's, against the reference
	// construction.
	if err := equalIndexes(s.Live().Index(), buildIndex(batch)); err != nil {
		return fmt.Errorf("live index: %w", err)
	}
	if err := equalIndexes(snap.Index(), buildIndex(batch)); err != nil {
		return fmt.Errorf("snapshot index: %w", err)
	}
	return nil
}

// equalToFresh compares s with a fresh NewStream fed s's events: the
// events, every transaction view (no stale ones), and the whole live
// index, down to the dense index of every transaction and object that
// probe names, which a stream must have forgotten when it no longer
// holds them. A reset stream that has been fed another history must
// leave nothing of the first behind.
func equalToFresh(s *Stream, probe []Event) error {
	fresh := NewStream()
	for _, e := range s.Events() {
		if err := fresh.Append(e); err != nil {
			return fmt.Errorf("fresh stream rejects %v: %w", e, err)
		}
	}
	a, b := s.Live(), fresh.Live()
	if err := equalHistories(a, b); err != nil {
		return err
	}
	if len(a.txns) != len(b.txns) {
		return fmt.Errorf("%d transaction views, fresh %d", len(a.txns), len(b.txns))
	}
	for id, tb := range b.txns {
		ta := a.txns[id]
		if ta == nil || ta.ID != tb.ID || ta.First != tb.First || ta.Last != tb.Last ||
			ta.TryCInv != tb.TryCInv || ta.TryCRes != tb.TryCRes || !slices.Equal(ta.Ops, tb.Ops) {
			return fmt.Errorf("T%v: view %+v, fresh %+v", id, ta, tb)
		}
	}
	ia, ib := a.Index(), b.Index()
	if err := equalIndexes(ia, ib); err != nil {
		return err
	}
	for i := range ib.Txns {
		if ia.Txns[i].Info != a.txns[ia.TxnIDs[i]] {
			return fmt.Errorf("index row %d does not point at T%v's view", i, ia.TxnIDs[i])
		}
	}
	if len(ia.txnIdx) != len(ib.txnIdx) || len(ia.objIdx) != len(ib.objIdx) {
		return fmt.Errorf("index maps hold %d txns and %d objects, fresh %d and %d",
			len(ia.txnIdx), len(ia.objIdx), len(ib.txnIdx), len(ib.objIdx))
	}
	for _, e := range probe {
		if ga, gb := ia.TxnIndexOf(e.Txn), ib.TxnIndexOf(e.Txn); ga != gb {
			return fmt.Errorf("TxnIndexOf(T%v) = %d, fresh %d", e.Txn, ga, gb)
		}
		if ga, gb := ia.ObjIndexOf(e.Obj), ib.ObjIndexOf(e.Obj); ga != gb {
			return fmt.Errorf("ObjIndexOf(%v) = %d, fresh %d", e.Obj, ga, gb)
		}
	}
	return nil
}

// TestStreamMatchesBatchPrefixes pins the tentpole invariant: feeding a
// history event by event produces, at every prefix, exactly the history
// and index the batch path builds.
func TestStreamMatchesBatchPrefixes(t *testing.T) {
	prop := func(rh randHistory) bool {
		s := NewStream()
		for i, e := range rh.H.Events() {
			if err := s.Append(e); err != nil {
				t.Logf("append %d (%v): %v", i, e, err)
				return false
			}
			if err := checkStreamAgainstBatch(s); err != nil {
				t.Logf("after event %d (%v): %v", i, e, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// invalidCandidates returns events the stream must reject in its current
// state (mirrored against FromEvents to make sure they are indeed
// invalid).
func invalidCandidates(evs []Event, r *rand.Rand) []Event {
	cands := []Event{
		{Kind: Inv, Op: OpRead, Txn: InitTxn, Obj: "X"},               // reserved id
		{Kind: Res, Op: OpRead, Txn: TxnID(90 + r.Intn(5)), Obj: "X"}, // orphan response
		{Kind: Res, Op: OpTryCommit, Txn: TxnID(1 + r.Intn(6)), Out: OutCommit},
		{Kind: Inv, Op: OpWrite, Txn: TxnID(1 + r.Intn(6)), Obj: "Y", Arg: 3},
		{Kind: Res, Op: OpRead, Txn: TxnID(1 + r.Intn(6)), Obj: "Z", Out: OutOK, Val: 1},
	}
	var out []Event
	for _, e := range cands {
		if _, err := FromEvents(append(append([]Event(nil), evs...), e)); err != nil {
			out = append(out, e)
		}
	}
	return out
}

// TestStreamRejectionLeavesStateUntouched interleaves invalid events into
// valid streams and verifies rejection is side-effect-free: the stream
// state after a rejected append is indistinguishable from never having
// offered the event, and subsequent valid appends behave identically.
func TestStreamRejectionLeavesStateUntouched(t *testing.T) {
	prop := func(rh randHistory, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStream()
		var accepted []Event
		for _, e := range rh.H.Events() {
			// Offer a few invalid events first; each must be rejected
			// without moving any state.
			for _, bad := range invalidCandidates(accepted, r) {
				if err := s.Append(bad); err == nil {
					t.Logf("invalid event %v accepted", bad)
					return false
				}
				if s.Len() != len(accepted) {
					t.Logf("rejected append changed Len")
					return false
				}
			}
			if err := checkStreamAgainstBatch(s); err != nil {
				t.Logf("state after rejections: %v", err)
				return false
			}
			if err := s.Append(e); err != nil {
				t.Logf("valid append %v failed: %v", e, err)
				return false
			}
			accepted = append(accepted, e)
		}
		return checkStreamAgainstBatch(s) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSnapshotImmutable pins that a snapshot taken mid-stream is
// unaffected by later appends — including the completion of an operation
// that was pending at snapshot time (the in-place mutation case).
func TestStreamSnapshotImmutable(t *testing.T) {
	s := NewStream()
	feed := []Event{
		{Kind: Inv, Op: OpWrite, Txn: 1, Obj: "X", Arg: 7},
		{Kind: Res, Op: OpWrite, Txn: 1, Obj: "X", Arg: 7, Out: OutOK},
		{Kind: Inv, Op: OpTryCommit, Txn: 1}, // pending at snapshot time
	}
	for _, e := range feed {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.History()
	wantLen := snap.Len()
	rest := []Event{
		{Kind: Res, Op: OpTryCommit, Txn: 1, Out: OutCommit}, // completes the pending op in place
		{Kind: Inv, Op: OpRead, Txn: 2, Obj: "X"},
		{Kind: Res, Op: OpRead, Txn: 2, Obj: "X", Out: OutOK, Val: 7},
	}
	for _, e := range rest {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Len() != wantLen {
		t.Fatalf("snapshot grew: %d -> %d", wantLen, snap.Len())
	}
	op, pending := snap.Txn(1).PendingOp()
	if !pending || op.Kind != OpTryCommit {
		t.Fatalf("snapshot's pending tryC was completed in place: %+v pending=%v", op, pending)
	}
	if snap.Txn(2) != nil {
		t.Fatal("snapshot sees a transaction that appeared later")
	}
	// The snapshot still validates and indexes as the batch path would.
	batch := MustFromEvents(feed)
	if err := equalHistories(snap, batch); err != nil {
		t.Fatal(err)
	}
	if err := equalIndexes(snap.Index(), batch.Index()); err != nil {
		t.Fatal(err)
	}

	// Truncate under held snapshots: un-completing the tryC (an in-place
	// write to an operation both snapshots alias) and re-appending other
	// events over the truncated tail must reach neither.
	all := append(append([]Event(nil), feed...), rest...)
	snap2 := s.History()
	s.Truncate(len(feed))
	for _, e := range []Event{
		{Kind: Res, Op: OpTryCommit, Txn: 1, Out: OutAbort},
		{Kind: Inv, Op: OpWrite, Txn: 3, Obj: "Y", Arg: 9},
		{Kind: Res, Op: OpWrite, Txn: 3, Obj: "Y", Arg: 9, Out: OutOK},
	} {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := equalHistories(snap, batch); err != nil {
		t.Fatalf("first snapshot after truncate and re-append: %v", err)
	}
	if err := equalHistories(snap2, MustFromEvents(all)); err != nil {
		t.Fatalf("second snapshot after truncate and re-append: %v", err)
	}
	if err := checkStreamAgainstBatch(s); err != nil {
		t.Fatal(err)
	}
}

// TestStreamTruncateMatchesBatch pins Truncate as the exact inverse of
// Append: through random rounds of advancing and truncating, the live
// history and the incrementally maintained index (recycled rows and all)
// equal the batch constructions over the surviving events. Every other
// round also takes a snapshot, so both the shared-storage path (detach)
// and the in-place one are walked. At the end the stream is reset and fed
// a different history, after which it must equal a fresh stream fed that
// history (equalToFresh), with or without a snapshot held across the
// reset.
func TestStreamTruncateMatchesBatch(t *testing.T) {
	prop := func(rh, other randHistory, seed int64) bool {
		evs := rh.H.Events()
		r := rand.New(rand.NewSource(seed))
		s := NewStream()
		check := func(what string, snapshot bool) bool {
			batch := MustFromEvents(evs[:s.Len()])
			err := equalHistories(s.Live(), batch)
			if err == nil {
				err = equalIndexes(s.Live().Index(), buildIndex(batch))
			}
			if err == nil && snapshot {
				err = checkStreamAgainstBatch(s)
			}
			if err != nil {
				t.Logf("%s, %d of %d events: %v", what, s.Len(), len(evs), err)
			}
			return err == nil
		}
		for round := 0; round < 10; round++ {
			for to := s.Len() + r.Intn(len(evs)-s.Len()+1); s.Len() < to; {
				if err := s.Append(evs[s.Len()]); err != nil {
					t.Logf("re-append %d: %v", s.Len(), err)
					return false
				}
			}
			if !check("advanced", round%2 == 1) {
				return false
			}
			s.Truncate(r.Intn(s.Len() + 1))
			if !check("truncated", false) {
				return false
			}
		}
		s.Truncate(0)
		if !check("reset", true) {
			return false
		}
		for _, e := range evs[:r.Intn(len(evs)+1)] {
			if err := s.Append(e); err != nil {
				t.Logf("re-append before the second reset: %v", err)
				return false
			}
		}
		var snap *History
		var snapEvs []Event
		if r.Intn(2) == 0 {
			snap, snapEvs = s.History(), s.Events()
		}
		s.Truncate(0)
		next := other.H.Events()
		for _, e := range next {
			if err := s.Append(e); err != nil {
				t.Logf("a different history after the reset: %v", err)
				return false
			}
		}
		if err := equalToFresh(s, append(evs, next...)); err != nil {
			t.Logf("reset, then a different history: %v", err)
			return false
		}
		if snap != nil {
			if err := equalHistories(snap, MustFromEvents(snapEvs)); err != nil {
				t.Logf("snapshot held across the reset: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamManyTxnsKeepsMasks crosses the old 64-transaction mask
// ceiling — and the first two-word boundary at 128 — and checks the
// bitset views stay populated and agree with the batch builder at every
// boundary. (This inverts the pre-bitset TestStreamManyTxnsDropsMasks,
// which asserted that both index builders silently dropped their masks
// past 64 transactions; the single-word masks and their MasksValid
// degradation path are gone.)
func TestStreamManyTxnsKeepsMasks(t *testing.T) {
	s := NewStream()
	for k := 1; k <= 132; k++ {
		id := TxnID(k)
		evs := []Event{
			{Kind: Inv, Op: OpWrite, Txn: id, Obj: "X", Arg: Value(k)},
			{Kind: Res, Op: OpWrite, Txn: id, Obj: "X", Arg: Value(k), Out: OutOK},
			{Kind: Inv, Op: OpTryCommit, Txn: id},
			{Kind: Res, Op: OpTryCommit, Txn: id, Out: OutCommit},
		}
		for _, e := range evs {
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		ix := s.Live().Index()
		if got := len(ix.RTPred); got != k {
			t.Fatalf("k=%d: RTPred has %d rows", k, got)
		}
		if got := ix.TComplete.OnesCount(); got != k {
			t.Fatalf("k=%d: TComplete has %d members", k, got)
		}
		switch k {
		case 63, 64, 65, 127, 128, 129:
			// The word boundaries: full parity with the batch builder.
			if err := checkStreamAgainstBatch(s); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			// Transaction k-1 (dense index k-1) is real-time preceded by all
			// k-1 earlier transactions.
			if got := ix.RTPred[k-1].OnesCount(); got != k-1 {
				t.Fatalf("k=%d: RTPred[%d] has %d members, want %d", k, k-1, got, k-1)
			}
		}
	}
	if err := checkStreamAgainstBatch(s); err != nil {
		t.Fatal(err)
	}
}
