package spec

import (
	"math"

	"duopacity/internal/history"
)

// edgeTracker maintains a criterion's extra conflict-order edges (TMS2 /
// RCO) incrementally while the monitor's stream grows, so a recheck never
// rebuilds tms2Edges/rcoEdges from the whole history. The key observation
// is that each edge's defining condition becomes true at exactly one
// event and — except for TMS2's aborted-reader exemption — stays true in
// every extension:
//
//   - A TMS2 edge T1 <_S T2 (X ∈ Wset(T1) ∩ Rset(T2), T1 committed,
//     res(tryC_1) before inv(tryC_2)) is decided entirely by the prefix
//     ending at inv(tryC_2): T2's read set is final there, and any writer
//     committing later fails res(tryC_1) < inv(tryC_2) forever. So the
//     tracker scans the live transactions once per tryC invocation —
//     O(live window), never O(history).
//   - An RCO edge T_k <_S T_m (some t-read of X by T_k responds before
//     inv(tryC_m), T_m commits a write to X) is decided at T_m's commit
//     response: T_m's write set is final there, and reads responding
//     later fail the event-order test forever. One scan per commit.
//   - Under WithTMS2AbortedReaderExemption an edge targeting T2 dies at
//     exactly one event too: the abort response of tryC_2 (the only way a
//     transaction with an invoked tryC becomes t-complete without
//     committing). Removal makes the edge set non-monotone, which is why
//     a TMS2 monitor with the exemption reports the latched property
//     "every response prefix seen so far" (see NewMonitor).
//
// Edges are held by transaction identifier, so they survive the dense
// index reshuffle of windowed retirement; retire() calls dropRetired to
// discard edges touching retired transactions (sound and exact: a
// retired-to-live edge is implied by the retirement barrier's real-time
// order, and live-to-retired edges are impossible — the live side's first
// event follows the retired side's last, contradicting the edge's event
// ordering; see DESIGN.md "Incremental conflict-order edges").
//
// pending accumulates the edges added since the monitor's last recheck:
// the fast path only has to test those against the standing witness
// (standing edges were validated when they were pending and witness
// positions never reorder outside adoptWitness, which re-validates
// everything through the search).
type edgeTracker struct {
	crit   Criterion
	exempt bool
	// skipCkpt is set when retirement is on: the checkpoint transaction
	// (ckptTxn) is a committed writer and would source TMS2 edges to
	// every later reader of its objects, but those edges are implied by
	// real-time order (the checkpoint precedes every live transaction),
	// and keeping extraEdges empty preserves the engine's RTPred-aliasing
	// fast path. Without retirement the identifier is ordinary and the
	// edges are kept.
	skipCkpt bool

	edges   [][2]history.TxnID
	pending [][2]history.TxnID
	objs    []history.Var // writeVars scratch
}

func newEdgeTracker(c Criterion, exempt, retiring bool) *edgeTracker {
	return &edgeTracker{crit: c, exempt: exempt && c == TMS2, skipCkpt: retiring}
}

// observe folds one just-appended event into the edge state. ix must be
// the live index already updated with e. It is called for every event
// (TMS2 edges appear at invocations); the verdict itself is only
// recomputed at responses, so an edge created by inv(tryC) is enforced
// from the next response prefix on — which is exact, because batch
// verdicts are only compared at response prefixes and the edge set at
// every response prefix matches the batch edge set (pinned by the
// per-prefix differential tests).
func (et *edgeTracker) observe(ix *history.Indexed, e history.Event) {
	if e.Op != history.OpTryCommit {
		return
	}
	switch et.crit {
	case TMS2:
		if e.Kind == history.Inv {
			et.tms2ReaderArrived(ix, e.Txn)
		} else if et.exempt && e.Out != history.OutCommit {
			et.dropTarget(e.Txn)
		}
	case RCO:
		if e.Kind == history.Res && e.Out == history.OutCommit {
			et.rcoWriterCommitted(ix, e.Txn)
		}
	}
}

// tms2ReaderArrived adds the TMS2 edges decided by inv(tryC_2): one from
// every already-committed writer of an object in T2's read set. Committed
// writers necessarily satisfy res(tryC_1) < inv(tryC_2) — their commit
// response is already in the history.
func (et *edgeTracker) tms2ReaderArrived(ix *history.Indexed, reader history.TxnID) {
	gi := ix.TxnIndexOf(reader)
	if gi < 0 {
		return
	}
	t2 := &ix.Txns[gi]
	for ai := range ix.Txns {
		if ai == gi {
			continue
		}
		t1 := &ix.Txns[ai]
		if !t1.Committed || len(t1.Writes) == 0 || t1.TryCRes < 0 {
			continue
		}
		if et.skipCkpt && t1.Info.ID == ckptTxn {
			continue
		}
		et.objs = writeVars(ix, t1, et.objs[:0])
		if readsAny(t2, et.objs, math.MaxInt) {
			et.add(t1.Info.ID, reader)
		}
	}
}

// rcoWriterCommitted adds the RCO edges decided by T_m's commit response:
// one from every transaction with a completed successful read of an
// object in Wset(T_m) whose response precedes inv(tryC_m).
func (et *edgeTracker) rcoWriterCommitted(ix *history.Indexed, writer history.TxnID) {
	mi := ix.TxnIndexOf(writer)
	if mi < 0 {
		return
	}
	tm := &ix.Txns[mi]
	if len(tm.Writes) == 0 || tm.TryCInv < 0 {
		return
	}
	et.objs = writeVars(ix, tm, et.objs[:0])
	for ki := range ix.Txns {
		if ki != mi && readsAny(&ix.Txns[ki], et.objs, tm.TryCInv) {
			et.add(ix.TxnIDs[ki], writer)
		}
	}
}

func (et *edgeTracker) add(from, to history.TxnID) {
	et.edges = append(et.edges, [2]history.TxnID{from, to})
	et.pending = append(et.pending, [2]history.TxnID{from, to})
}

// dropTarget removes every edge into the aborted reader (the exemption).
func (et *edgeTracker) dropTarget(to history.TxnID) {
	et.edges = dropEdgesTo(et.edges, to)
	et.pending = dropEdgesTo(et.pending, to)
}

func dropEdgesTo(edges [][2]history.TxnID, to history.TxnID) [][2]history.TxnID {
	out := edges[:0]
	for _, e := range edges {
		if e[1] != to {
			out = append(out, e)
		}
	}
	return out
}

// rebuild replaces the edge set by the batch builder's over h — a response
// prefix the session was rewound to, where the two are equal (pinned at
// every prefix by the differential tests). Nothing is left pending: the
// rewind places its restricted witness against the whole set, or searches
// with it.
func (et *edgeTracker) rebuild(h *history.History) {
	var edges [][2]history.TxnID
	if et.crit == TMS2 {
		edges = tms2Edges(h, et.exempt)
	} else {
		edges = rcoEdges(h)
	}
	et.edges = append(et.edges[:0], edges...)
	et.pending = et.pending[:0]
}

// clearPending marks the current edge set validated: either the fast path
// checked the pending edges against the witness, or a full search (which
// enforces the whole standing set) just ran.
func (et *edgeTracker) clearPending() { et.pending = et.pending[:0] }

// pendingOK reports whether the witness order satisfies every edge added
// since the last recheck: the source must be placed before the target.
func (et *edgeTracker) pendingOK(ix *history.Indexed, pos []int) bool {
	for _, e := range et.pending {
		fi, ti := ix.TxnIndexOf(e[0]), ix.TxnIndexOf(e[1])
		if fi < 0 || ti < 0 || fi >= len(pos) || ti >= len(pos) {
			return false
		}
		if pos[fi] >= pos[ti] {
			return false
		}
	}
	return true
}

// dropRetired discards edges with an endpoint outside the rebuilt live
// index — the transactions windowed retirement just folded into the
// checkpoint. Exact: live-to-retired edges cannot exist, and a
// retired-to-live edge restates the real-time precedence the retirement
// barrier already guarantees.
func (et *edgeTracker) dropRetired(live *history.Indexed) {
	keep := et.edges[:0]
	for _, e := range et.edges {
		if live.TxnIndexOf(e[0]) >= 0 && live.TxnIndexOf(e[1]) >= 0 {
			keep = append(keep, e)
		}
	}
	et.edges = keep
	// pending is empty here (retirement runs after an accepting recheck),
	// but filter defensively so a stale entry cannot outlive its txn.
	keepP := et.pending[:0]
	for _, e := range et.pending {
		if live.TxnIndexOf(e[0]) >= 0 && live.TxnIndexOf(e[1]) >= 0 {
			keepP = append(keepP, e)
		}
	}
	et.pending = keepP
}
