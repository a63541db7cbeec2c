package history

// Indexed is the dense, precomputed view of a history that the decision
// procedures (package spec), the proof constructions (package koenig) and
// the online monitor share. It replaces the per-check rebuilding of
// map[Var]int / map[TxnID]int with indexes computed once per History:
// histories are immutable, so the view is cached on the History and safe
// to share across goroutines.
//
// There is one construction, the stream's event-by-event indexer
// (Stream.index). A stream built with NewStream runs it as each event is
// appended; a built history (FromEvents, Prefix, Builder, a Stream.History
// snapshot) runs it over its events in order on first use (Index).
//
// Transaction indexes follow first-appearance order (the order of
// History.Txns), and so do object indexes — both admit append-only
// incremental updates, unlike a sorted object order.
type Indexed struct {
	H *History

	// Objs holds the t-objects in dense-index order.
	Objs   []Var
	objIdx map[Var]int

	// TxnIDs holds the transaction identifiers in dense-index order.
	TxnIDs []TxnID
	txnIdx map[TxnID]int

	// Txns holds the per-transaction summaries, parallel to TxnIDs.
	Txns []IndexedTxn

	// The bitset views below are always populated; multi-word Bits rows
	// lifted the old 64-transaction mask ceiling (and with it the
	// MasksValid degradation path, which is gone).
	//
	// RTPred[i] is the set of transactions that real-time precede
	// transaction i (Definition 3, condition 2). Row i holds exactly
	// bitsWords(i) words: dense order is first-appearance order, so only
	// lower-indexed transactions can real-time precede i.
	RTPred []Bits
	// Writers[o] is the set of transactions with a successful (last) write
	// to object o — the candidate sources of a read of o. Rows are sized
	// to their highest-indexed writer (nil when the object was never
	// written).
	Writers []Bits
	// TComplete is the set of t-complete transactions, sized to its
	// highest-indexed member.
	TComplete Bits
}

// IndexedTxn is the per-transaction summary of the view.
type IndexedTxn struct {
	// Info is the underlying per-transaction view H|k.
	Info *TxnInfo

	// Reads lists the external value-returning reads of the transaction in
	// H|k order: reads satisfied by an earlier own write are excluded (they
	// are legal in every serialization once consistent).
	Reads []IndexedRead
	// Writes lists the values the transaction installs if it commits (the
	// latest successful write per object), sorted by object index.
	Writes []IndexedWrite

	// BadReadOp indexes Info.Ops at the first read that returned a value
	// different from the transaction's own latest preceding write of the
	// same object (-1 when none): such a history is inconsistent in every
	// serialization. BadReadWant is the own-write value the read missed.
	BadReadOp   int
	BadReadWant Value

	// Status flags and event positions, copied from Info for locality.
	First, Last      int
	TryCInv, TryCRes int
	Committed        bool
	CommitPending    bool
	TComplete        bool
	Complete         bool
}

// IndexedRead is one external value-returning read.
type IndexedRead struct {
	Obj    int // dense object index
	Val    Value
	ResIdx int // index in H of the read's response event
	Op     Op  // the operation, for diagnostics
}

// IndexedWrite is one installed write (the transaction's latest successful
// write to the object).
type IndexedWrite struct {
	Obj int // dense object index
	Val Value
}

// Index returns the history's indexed view. A history of a NewStream
// carries the stream's live index; a built history indexes itself here on
// first use, by feeding its events to the stream's indexer (indexHistory).
// The view is cached: repeated checks of the same History share one index.
func (h *History) Index() *Indexed {
	h.idxOnce.Do(func() { h.idx = indexHistory(h) })
	return h.idx
}

// NumTxns returns the number of transactions in the view.
func (ix *Indexed) NumTxns() int { return len(ix.TxnIDs) }

// NumObjs returns the number of t-objects in the view.
func (ix *Indexed) NumObjs() int { return len(ix.Objs) }

// TxnIndexOf returns the dense index of T_k, or -1.
func (ix *Indexed) TxnIndexOf(k TxnID) int {
	if i, ok := ix.txnIdx[k]; ok {
		return i
	}
	return -1
}

// ObjIndexOf returns the dense index of the object, or -1.
func (ix *Indexed) ObjIndexOf(v Var) int {
	if i, ok := ix.objIdx[v]; ok {
		return i
	}
	return -1
}

// SeqForOrder materializes the t-complete t-sequential history with
// transactions in the given dense-index order, completed per Definition 2
// (exactly as SeqFromHistory, which validates its inputs; this builder
// trusts the caller and allocates the operation slices as one slab). The
// order may cover a subset of the transactions — the serializability
// baselines order only committed and commit-pending transactions — and
// commit[pos] resolves the completion of a pending tryC at order[pos].
func (ix *Indexed) SeqForOrder(order []int, commit []bool) *Seq {
	total := 0
	for _, gi := range order {
		it := &ix.Txns[gi]
		total += len(it.Info.Ops)
		if it.Complete && !it.TComplete {
			total++
		}
	}
	slab := make([]Op, 0, total)
	txns := make([]SeqTxn, len(order))
	for pos, gi := range order {
		it := &ix.Txns[gi]
		t := it.Info
		start := len(slab)
		slab = append(slab, t.Ops...)
		switch {
		case it.TComplete:
			// Keep H|k as is.
		case it.CommitPending:
			last := &slab[len(slab)-1]
			last.Pending = false
			if commit[pos] {
				last.Out = OutCommit
			} else {
				last.Out = OutAbort
			}
		case !it.Complete:
			// Pending read, write or tryA: completed with A_k.
			last := &slab[len(slab)-1]
			last.Pending = false
			last.Out = OutAbort
		default:
			// Complete but not t-complete: synthetic tryC·A_k.
			slab = append(slab, Op{Kind: OpTryCommit, Out: OutAbort, InvIndex: -1, ResIndex: -1})
		}
		end := len(slab)
		txns[pos] = SeqTxn{ID: t.ID, Ops: slab[start:end:end]}
	}
	return &Seq{Txns: txns}
}
