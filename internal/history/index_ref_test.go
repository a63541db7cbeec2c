package history

import (
	"fmt"
	"sort"
	"testing"
)

// buildIndex is the reference index construction: a one-shot batch
// builder over a complete history, written independently of the stream's
// indexer (Stream.index, indexHistory), which the stream differentials and
// TestIndexMatchesReference compare against. Keep it independent: a new
// index field is computed here from its definition, not ported from the
// indexer.
func buildIndex(h *History) *Indexed {
	ix := &Indexed{H: h}

	// Objects, in first-appearance order (matching the stream's
	// incremental registration).
	seen := make(map[Var]bool)
	for _, e := range h.events {
		if e.Op == OpRead || e.Op == OpWrite {
			if !seen[e.Obj] {
				seen[e.Obj] = true
				ix.Objs = append(ix.Objs, e.Obj)
			}
		}
	}
	ix.objIdx = make(map[Var]int, len(ix.Objs))
	for i, v := range ix.Objs {
		ix.objIdx[v] = i
	}

	n := len(h.ids)
	ix.TxnIDs = append([]TxnID(nil), h.ids...)
	ix.txnIdx = make(map[TxnID]int, n)
	ix.Txns = make([]IndexedTxn, n)
	for i, k := range ix.TxnIDs {
		ix.txnIdx[k] = i
		t := h.txns[k]
		it := &ix.Txns[i]
		it.Info = t
		it.BadReadOp = -1
		it.First, it.Last = t.First, t.Last
		it.TryCInv, it.TryCRes = t.TryCInv, t.TryCRes
		it.Committed = t.Committed()
		it.CommitPending = t.CommitPending()
		it.TComplete = t.TComplete()
		it.Complete = t.Complete()

		// Classify reads and find the latest successful write per object by
		// scanning H|k; own-write lookback is a backward scan (transactions
		// are short, and this keeps index building allocation-light).
		for j, op := range t.Ops {
			if op.Pending {
				break
			}
			if op.Kind != OpRead || op.Out != OutOK {
				continue
			}
			own := false
			for p := j - 1; p >= 0; p-- {
				prev := t.Ops[p]
				if prev.Kind == OpWrite && prev.Out == OutOK && prev.Obj == op.Obj {
					own = true
					if prev.Arg != op.Val && it.BadReadOp < 0 {
						it.BadReadOp = j
						it.BadReadWant = prev.Arg
					}
					break
				}
			}
			if own {
				continue
			}
			it.Reads = append(it.Reads, IndexedRead{
				Obj: ix.objIdx[op.Obj], Val: op.Val, ResIdx: op.ResIndex, Op: op,
			})
		}
		for j, op := range t.Ops {
			if op.Pending || op.Kind != OpWrite || op.Out != OutOK {
				continue
			}
			// Keep only the latest write per object.
			last := true
			for p := j + 1; p < len(t.Ops); p++ {
				next := t.Ops[p]
				if next.Pending {
					break
				}
				if next.Kind == OpWrite && next.Out == OutOK && next.Obj == op.Obj {
					last = false
					break
				}
			}
			if last {
				it.Writes = append(it.Writes, IndexedWrite{Obj: ix.objIdx[op.Obj], Val: op.Arg})
			}
		}
		sort.Slice(it.Writes, func(a, b int) bool { return it.Writes[a].Obj < it.Writes[b].Obj })
	}

	// Bitset views. RTPred rows come out of one slab (row i spans
	// bitsWords(i) words — only lower-indexed transactions can precede i),
	// matching the shapes the stream's incremental maintenance produces.
	totalWords := 0
	for i := 0; i < n; i++ {
		totalWords += bitsWords(i)
	}
	slab := make([]uint64, totalWords)
	ix.RTPred = make([]Bits, n)
	off := 0
	for i := 0; i < n; i++ {
		w := bitsWords(i)
		ix.RTPred[i] = Bits(slab[off : off+w : off+w])
		off += w
	}
	ix.Writers = make([]Bits, len(ix.Objs))
	for i := range ix.Txns {
		it := &ix.Txns[i]
		for _, w := range it.Writes {
			ix.Writers[w.Obj] = ix.Writers[w.Obj].SetGrow(i)
		}
		if it.TComplete {
			ix.TComplete = ix.TComplete.SetGrow(i)
			// Only later-indexed transactions can real-time follow i: dense
			// order is first-appearance order.
			for m := i + 1; m < n; m++ {
				if it.Last < ix.Txns[m].First {
					ix.RTPred[m].Set(i)
				}
			}
		}
	}
	return ix
}

// checkIndexAgainstReference indexes h and compares the view with the
// reference construction over a fresh history of the same events: the view
// must be h's own (ix.H) and point at h's own transaction views, not
// copies.
func checkIndexAgainstReference(h *History) error {
	ix := h.Index()
	if ix.H != h {
		return fmt.Errorf("index of another history")
	}
	for i := range ix.Txns {
		if ix.Txns[i].Info != h.Txn(ix.TxnIDs[i]) {
			return fmt.Errorf("index row %d does not point at T%v's view", i, ix.TxnIDs[i])
		}
	}
	return equalIndexes(ix, buildIndex(MustFromEvents(h.Events())))
}

// TestIndexMatchesReference pins the index of built histories — the stream's
// indexer run over events their views already hold to the end — against
// the reference construction: a long serial history whose bitset rows span
// many words, a short concurrent one with every shape the index
// distinguishes, each prefix of the latter, and snapshots of a live stream
// indexed only after the stream appended and truncated past them.
func TestIndexMatchesReference(t *testing.T) {
	serial := serialHistory(5200)
	if err := checkIndexAgainstReference(serial); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if ix := serial.Index(); len(ix.Objs) != 16 || len(ix.RTPred[len(ix.RTPred)-1]) < 80 {
		t.Fatalf("serial: %d objects, last RTPred row %d words", len(ix.Objs), len(ix.RTPred[len(ix.RTPred)-1]))
	}

	h := overlapHistory()
	if err := checkIndexAgainstReference(h); err != nil {
		t.Fatalf("overlap: %v", err)
	}
	ix := h.Index()
	if it := ix.Txns[ix.TxnIndexOf(3)]; it.BadReadOp != 1 || it.BadReadWant != 5 {
		t.Fatalf("T3's read of X misses its own write 5, index says op %d want %d", it.BadReadOp, it.BadReadWant)
	}
	if it := ix.Txns[ix.TxnIndexOf(5)]; !it.CommitPending {
		t.Fatal("T5 is commit-pending")
	}
	if it := ix.Txns[ix.TxnIndexOf(4)]; it.Complete {
		t.Fatal("T4's read is pending")
	}
	for n := 0; n <= h.Len(); n++ {
		if err := checkIndexAgainstReference(h.Prefix(n)); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
	}

	// Snapshots of a live stream at every length, each indexed after the
	// stream went on, truncated to half the snapshot and appended other
	// transactions over the truncated tail.
	evs := h.Events()
	for m := 0; m <= len(evs); m++ {
		s := NewStream()
		for _, e := range evs[:m] {
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		snap, snapEvs := s.History(), s.Events()
		for _, e := range evs[m:] {
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		s.Truncate(m / 2)
		for k := TxnID(20); k < 24; k++ {
			for _, e := range []Event{
				{Kind: Inv, Op: OpWrite, Txn: k, Obj: "X", Arg: Value(k)},
				{Kind: Res, Op: OpWrite, Txn: k, Obj: "X", Arg: Value(k), Out: OutOK},
				{Kind: Inv, Op: OpTryCommit, Txn: k},
				{Kind: Res, Op: OpTryCommit, Txn: k, Out: OutCommit},
			} {
				if err := s.Append(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := equalHistories(snap, MustFromEvents(snapEvs)); err != nil {
			t.Fatalf("snapshot at %d: %v", m, err)
		}
		if err := checkIndexAgainstReference(snap); err != nil {
			t.Fatalf("snapshot at %d: %v", m, err)
		}
	}
}
