package spec

import (
	"math"
	"math/bits"
	"sort"

	"duopacity/internal/history"
)

// edgeTracker builds a criterion's extra conflict-order edges (TMS2 /
// RCO): the one construction of them, incremental while a session's
// stream grows and whole-history for a batch check or a rewind (build).
// Each edge's defining condition becomes true at exactly one event and —
// except for TMS2's aborted-reader exemption — stays true in every
// extension:
//
//   - A TMS2 edge T1 <_S T2 (X ∈ Wset(T1) ∩ Rset(T2), T1 committed,
//     res(tryC_1) before inv(tryC_2)) is decided entirely by the prefix
//     ending at inv(tryC_2): T2's read set is final there, and any writer
//     committing later fails res(tryC_1) < inv(tryC_2) forever.
//   - An RCO edge T_k <_S T_m (some t-read of X by T_k responds before
//     inv(tryC_m), T_m commits a write to X) is decided at T_m's commit
//     response: T_m's write set is final there, and reads responding
//     later fail the event-order test forever.
//   - Under WithTMS2AbortedReaderExemption an edge targeting T2 dies at
//     exactly one event too: the abort response of tryC_2 (the only way a
//     transaction with an invoked tryC becomes t-complete without
//     committing). Removal makes the edge set non-monotone, which is why
//     a TMS2 monitor with the exemption reports the latched property
//     "every response prefix seen so far" (see NewMonitor).
//
// So one scan per target, at the event that decides its edges, builds
// them all: a session runs it at that event (observe), build runs it for
// every target of a whole history, visiting the candidates the live scan
// would have visited then.
//
// An edge whose source real-time precedes its target is never built: the
// engine ORs each edge into the target's real-time predecessor row, so
// such an edge changes no row, no search and no witness. The scan
// therefore visits only the transactions concurrent with the target, not
// the live window; and the retirement checkpoint (ckptTxn), which
// real-time precedes every live transaction, sources no edge. See
// DESIGN.md "Incremental conflict-order edges".
//
// Edges are held by transaction identifier, so they survive the dense
// index reshuffle of windowed retirement. edges[fresh:] are the edges
// added since the monitor's last recheck: the fast path only has to test
// those against the standing witness (standing edges were validated when
// they were fresh and witness positions never reorder outside
// adoptWitness, which re-validates everything through the search).
type edgeTracker struct {
	crit   Criterion
	exempt bool

	edges [][2]history.TxnID
	fresh int
	objs  []history.Var // writeVars scratch
	// added and scanned count the edges the scans added and the candidate
	// transactions they visited; builds counts the whole-history rebuilds
	// (build), whose scans added and scanned leave out — a session that is
	// never rewound runs none.
	added, scanned, builds int
}

func newEdgeTracker(c Criterion, exempt bool) *edgeTracker {
	return &edgeTracker{crit: c, exempt: exempt && c == TMS2}
}

// observe folds one just-appended event into the edge state. ix must be
// the live index already updated with e. It is called for every event
// (TMS2 edges appear at invocations); the verdict itself is only
// recomputed at responses, so an edge created by inv(tryC) is enforced
// from the next response prefix on — which is exact, because batch
// verdicts are only compared at response prefixes and the edge set at
// every prefix is the one build finds over it (pinned by the per-prefix
// differential tests).
func (et *edgeTracker) observe(ix *history.Indexed, e history.Event) {
	if e.Op != history.OpTryCommit {
		return
	}
	switch ti := ix.TxnIndexOf(e.Txn); {
	case ti < 0:
	case et.crit == TMS2 && e.Kind == history.Inv:
		et.tms2ReaderArrived(ix, ti)
	case et.crit == TMS2 && et.exempt && e.Out != history.OutCommit:
		et.dropTarget(e.Txn)
	case et.crit == RCO && e.Kind == history.Res && e.Out == history.OutCommit:
		et.rcoWriterCommitted(ix, ti)
	}
}

// build replaces the edge set by the one the scans find over the whole of
// h: a history a batch check decides, or the response prefix a session was
// rewound to. It runs each target's scan in dense order — TMS2 at every
// invoked tryC but, under the exemption, an aborted reader's; RCO at every
// commit — and counts none of them (added, scanned). Nothing is left
// fresh: the caller searches with the whole set, or places an order
// against it.
func (et *edgeTracker) build(h *history.History) {
	ix := h.Index()
	added, scanned := et.added, et.scanned
	et.edges = et.edges[:0]
	for ti := range ix.Txns {
		t := &ix.Txns[ti]
		switch {
		case et.crit == TMS2 && t.TryCInv >= 0 && !(et.exempt && t.TComplete && !t.Committed):
			et.tms2ReaderArrived(ix, ti)
		case et.crit == RCO && t.Committed:
			et.rcoWriterCommitted(ix, ti)
		}
	}
	et.fresh = len(et.edges)
	et.added, et.scanned = added, scanned
	et.builds++
}

// tms2ReaderArrived adds the TMS2 edges decided by inv(tryC_2): one from
// every writer of an object in T2's read set that committed before it. On
// a live prefix ending at inv(tryC_2) every committed writer did; over a
// whole history (build) the bound res(tryC_1) < inv(tryC_2) is tested.
func (et *edgeTracker) tms2ReaderArrived(ix *history.Indexed, gi int) {
	t2 := &ix.Txns[gi]
	et.concurrent(ix, gi, t2.TryCInv, func(ai int) {
		t1 := &ix.Txns[ai]
		if t1.Committed && len(t1.Writes) > 0 && 0 <= t1.TryCRes && t1.TryCRes < t2.TryCInv {
			et.objs = writeVars(ix, t1, et.objs[:0])
			if readsAny(t2, et.objs, math.MaxInt) {
				et.add(t1.Info.ID, t2.Info.ID)
			}
		}
	})
}

// rcoWriterCommitted adds the RCO edges decided by T_m's commit response:
// one from every transaction with a completed successful read of an
// object in Wset(T_m) whose response precedes inv(tryC_m).
func (et *edgeTracker) rcoWriterCommitted(ix *history.Indexed, mi int) {
	tm := &ix.Txns[mi]
	if len(tm.Writes) == 0 || tm.TryCInv < 0 {
		return
	}
	et.objs = writeVars(ix, tm, et.objs[:0])
	et.concurrent(ix, mi, tm.TryCRes, func(ki int) {
		if readsAny(&ix.Txns[ki], et.objs, tm.TryCInv) {
			et.add(ix.TxnIDs[ki], tm.Info.ID)
		}
	})
}

// edgeScanOracle is nil outside tests, which set it (WatchEdgeScans) to
// hold the edges one scan into ti added, et.edges[from:], against the
// whole-window scan it replaced.
var edgeScanOracle func(et *edgeTracker, ix *history.Indexed, ti, from int)

// concurrent calls f, in ascending dense order, for every transaction
// other than ti that does not real-time precede it and appeared by the
// event at index at, the one deciding ti's edges: the complement of
// RTPred[ti] word by word, then every higher index, up to the first
// transaction appearing later. On a live prefix the deciding event is the
// last one, and every transaction has appeared by it.
func (et *edgeTracker) concurrent(ix *history.Indexed, ti, at int, f func(ai int)) {
	from, pred := len(et.edges), ix.RTPred[ti]
	n := sort.Search(ix.NumTxns(), func(k int) bool { return ix.Txns[k].First > at }) // dense order is first-appearance order
	for w := 0; w<<6 < n; w++ {
		m := ^uint64(0)
		if w < len(pred) {
			m = ^pred[w]
		}
		if rest := n - w<<6; rest < 64 {
			m &= 1<<uint(rest) - 1
		}
		for ; m != 0; m &= m - 1 {
			if ai := w<<6 + bits.TrailingZeros64(m); ai != ti {
				et.scanned++
				f(ai)
			}
		}
	}
	if edgeScanOracle != nil {
		edgeScanOracle(et, ix, ti, from)
	}
}

func (et *edgeTracker) add(from, to history.TxnID) {
	et.added++
	et.edges = append(et.edges, [2]history.TxnID{from, to})
}

// dropTarget removes every edge into the aborted reader (the exemption).
func (et *edgeTracker) dropTarget(to history.TxnID) {
	et.filter(func(e [2]history.TxnID) bool { return e[1] != to })
}

// dropRetired discards edges with an endpoint outside the rebuilt live
// index — the transactions windowed retirement just folded into the
// checkpoint. Exact: a retired-to-live edge restates real-time order and
// is never built, and a live-to-retired one cannot exist — the live side's
// first event follows the retired side's last, contradicting the edge's
// event ordering.
func (et *edgeTracker) dropRetired(live *history.Indexed) {
	et.filter(func(e [2]history.TxnID) bool {
		return live.TxnIndexOf(e[0]) >= 0 && live.TxnIndexOf(e[1]) >= 0
	})
}

// filter keeps the edges keep accepts, fresh ones staying fresh.
func (et *edgeTracker) filter(keep func(e [2]history.TxnID) bool) {
	out, fresh := et.edges[:0], et.fresh
	for i, e := range et.edges {
		if keep(e) {
			out = append(out, e)
		} else if i < et.fresh {
			fresh--
		}
	}
	et.edges, et.fresh = out, fresh
}

// clearFresh marks the current edge set validated: either the fast path
// checked the fresh edges against the witness, or a full search (which
// enforces the whole standing set) just ran.
func (et *edgeTracker) clearFresh() { et.fresh = len(et.edges) }

// freshOK reports whether the witness order satisfies every edge added
// since the last recheck: the source must be placed before the target.
func (et *edgeTracker) freshOK(ix *history.Indexed, pos []int) bool {
	for _, e := range et.edges[et.fresh:] {
		fi, ti := ix.TxnIndexOf(e[0]), ix.TxnIndexOf(e[1])
		if fi < 0 || ti < 0 || fi >= len(pos) || ti >= len(pos) || pos[fi] >= pos[ti] {
			return false
		}
	}
	return true
}
