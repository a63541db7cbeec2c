package spec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"duopacity/internal/history"
)

// CheckReference exposes the frozen PR 1 engine (reference_test.go) to the
// differential tests and the fuzz target in package spec_test.
func CheckReference(h *history.History, c Criterion, opts ...Option) Verdict {
	return checkReference(h, c, buildOptions(opts))
}

// MonitorEdges exposes a snapshot of the monitor's incrementally
// maintained conflict-order edge set (nil for criteria without one) so
// the differential tests can pin it against the batch edge builders.
func MonitorEdges(m *Monitor) [][2]history.TxnID { return SessionEdges(&m.s, 0) }

// SessionEdges is MonitorEdges for the session's k-th criterion.
func SessionEdges(s *Session, k int) [][2]history.TxnID {
	et := s.deciders[k].edges
	if et == nil {
		return nil
	}
	return append([][2]history.TxnID(nil), et.edges...)
}

// SessionEdgeScans reports what the edge scans of the session's k-th
// criterion did: the edges they added and the candidate transactions they
// visited (0, 0 for a criterion without conflict-order edges). The scans
// a rewind's build runs are not counted.
func SessionEdgeScans(s *Session, k int) (added, scanned int) {
	if et := s.deciders[k].edges; et != nil {
		return et.added, et.scanned
	}
	return 0, 0
}

// SessionEdgeBuilds reports how often the session's k-th criterion rebuilt
// its conflict-order edges over a whole history (edgeTracker.build; 0 for
// a criterion without them).
func SessionEdgeBuilds(s *Session, k int) int {
	if et := s.deciders[k].edges; et != nil {
		return et.builds
	}
	return 0
}

// SessionHistory exposes a snapshot of the session's live history — the
// (checkpointed) history its witnesses serialize — to the differential
// tests.
func SessionHistory(s *Session) *history.History { return s.st.History() }

// SessionStreams exposes the session's live stream and its spare (nil
// before the first retirement, both nil after Release), for the tests of
// what a released session hands back.
func SessionStreams(s *Session) (live, spare *history.Stream) { return s.st, s.spare }

// BatchConflictEdges is the edge set the batch checkers search c with over
// the whole history (criterionMode: the tracker's build) — what the live
// tracker must hold at every prefix.
func BatchConflictEdges(h *history.History, c Criterion, exemptAborted bool) [][2]history.TxnID {
	if c != TMS2 && c != RCO {
		return nil
	}
	return criterionMode(h, c, options{tms2AbortedExemption: exemptAborted}, nil).extraEdges
}

// RefConflictEdges is BatchConflictEdges by the reference engine's frozen
// string-keyed builders.
func RefConflictEdges(h *history.History, c Criterion, exemptAborted bool) [][2]history.TxnID {
	switch c {
	case TMS2:
		return refTMS2Edges(h, exemptAborted)
	case RCO:
		return refRCOEdges(h)
	}
	return nil
}

// FlipOracle tallies what WatchFlips saw: the commit-decision flips, the
// moves to the end of the witness, and the reads in the witness order at
// each of them — what the whole-order placement checks where the
// restricted checks count ReadsRechecked.
type FlipOracle struct {
	Flips     int
	Aborts    int // of Flips, those taking back a commit the witness had guessed
	Moves     int
	FullReads int
}

// WatchFlips installs the flip-equivalence oracle until tb ends: at each
// flip of any decider, in both directions, and at each move of a
// transaction to the end of the witness, the decider's engine places the
// whole witness order (roles, real-time order, every standing
// conflict-order edge, every read) beside the restricted check, and tb
// fails when they disagree. It replaces the oracle of an earlier call; the
// tests that use it do not run in parallel.
func WatchFlips(tb testing.TB) *FlipOracle {
	o := &FlipOracle{}
	flipOracle = func(d *decider, ix *history.Indexed, p int, move, ok bool) {
		what := "flip"
		if move {
			o.Moves++
			what = "move"
		} else if o.Flips++; !d.commit[p] {
			o.Aborts++
		}
		for _, gi := range d.order {
			o.FullReads += len(ix.Txns[gi].Reads)
		}
		if full := d.places(ix.H, options{}); full != ok {
			tb.Errorf("%v %s at event %d: restricted check says %v, whole-order placement %v\nhistory:\n%s",
				d.crit, what, ix.H.Len(), ok, full, ix.H)
		}
	}
	tb.Cleanup(func() { flipOracle = nil })
	return o
}

// WatchLookups installs the writer-lookup oracle until tb ends: every
// per-object lookup of checkRead and committedWriter (decider.lastWriters)
// is compared with scanWriters, the whole-prefix scan it replaced, and tb
// fails when they disagree. It returns the number of lookups compared. It
// replaces the oracle of an earlier call; the tests that use it do not run
// in parallel.
func WatchLookups(tb testing.TB) *int {
	n := new(int)
	lookupOracle = func(d *decider, ix *history.Indexed, obj, from, to, before, top, local int) {
		*n++
		if wt, wl := scanWriters(d, ix, obj, from, to, before); wt != top || wl != local {
			tb.Errorf("%v lookup of the writers of %s in positions [%d,%d), tryC before event %d, at event %d: top %d, local %d; the scan finds %d, %d\nhistory:\n%s",
				d.crit, ix.Objs[obj], from, to, before, ix.H.Len(), top, local, wt, wl, ix.H)
		}
	}
	tb.Cleanup(func() { lookupOracle = nil })
	return n
}

// WatchEdgeScans installs the edge-scan oracle until tb ends: at each TMS2
// tryC invocation and each RCO commit response — live, or replayed by
// build over a whole history — the whole-window scan the edge tracker
// made before it walked only the transactions concurrent with the target
// (wholeWindowEdges) runs beside the tracker's scan, and tb
// fails unless the tracker added the whole-window edges minus those whose
// source real-time precedes the target, in the same order. It returns the
// number of scans compared. It replaces the oracle of an earlier call; the
// tests that use it do not run in parallel.
func WatchEdgeScans(tb testing.TB) *int {
	n := new(int)
	edgeScanOracle = func(et *edgeTracker, ix *history.Indexed, ti, from int) {
		*n++
		var want [][2]history.TxnID
		for _, e := range wholeWindowEdges(et.crit, ix, ti) {
			if !ix.RTPred[ti].Test(ix.TxnIndexOf(e[0])) {
				want = append(want, e)
			}
		}
		if got := et.edges[from:]; !slices.Equal(got, want) {
			tb.Errorf("%v scan into T%d at event %d added %v; the whole-window scan less real-time order finds %v\nhistory:\n%s",
				et.crit, ix.TxnIDs[ti], ix.H.Len(), got, want, ix.H)
		}
	}
	tb.Cleanup(func() { edgeScanOracle = nil })
	return n
}

// wholeWindowEdges is the edge tracker's scan into transaction ti as it
// was before real-time order pruned it: every live transaction is a
// candidate source. For TMS2 (ti's tryC invoked) the sources are the
// writers of an object ti read that committed before that invocation; for
// RCO (ti committed) the transactions that read an object ti writes before
// ti's tryC invocation. On a live prefix ending at the scan's event the
// TMS2 bound holds for every committed writer; over a whole history
// (build) it does not.
func wholeWindowEdges(c Criterion, ix *history.Indexed, ti int) (edges [][2]history.TxnID) {
	t := &ix.Txns[ti]
	objs := writeVars(ix, t, nil)
	for ai := range ix.Txns {
		a := &ix.Txns[ai]
		switch {
		case ai == ti:
		case c == TMS2 && a.Committed && len(a.Writes) > 0 && a.TryCRes >= 0 && a.TryCRes < t.TryCInv:
			if readsAny(t, writeVars(ix, a, nil), math.MaxInt) {
				edges = append(edges, [2]history.TxnID{a.Info.ID, t.Info.ID})
			}
		case c == RCO && readsAny(a, objs, t.TryCInv):
			edges = append(edges, [2]history.TxnID{a.Info.ID, t.Info.ID})
		}
	}
	return edges
}

// scanWriters answers what lastWriters does by scanning every witness
// position in [from,to), each committed one's installed writes included —
// the lookup checkRead and committedWriter made before they walked the
// object's writers.
func scanWriters(d *decider, ix *history.Indexed, obj, from, to, before int) (top, local int) {
	top, local = -1, -1
	for q := from; q < to; q++ {
		if !d.commit[q] {
			continue
		}
		wt := &ix.Txns[d.order[q]]
		for wi := range wt.Writes {
			w := &wt.Writes[wi]
			if w.Obj > obj {
				break // Writes are sorted by object index
			}
			if w.Obj == obj {
				top = d.order[q]
				if wt.TryCInv >= 0 && wt.TryCInv < before {
					local = d.order[q]
				}
			}
		}
	}
	return top, local
}

// WitnessOrder exposes an accepting verdict's witness unrendered: the
// dense transaction indexes in serialization order and the commit
// decision at each position (nil, nil for a verdict without a witness).
// Like Witness it must be asked before the session's next Append.
func WitnessOrder(v Verdict) (order []int, commit []bool) {
	if v.w == nil {
		return nil, nil
	}
	v.w.check(v.gen)
	return v.w.order, v.w.commit
}

// WatchRewindPlacements is a test hook: until stop is called, every
// decider rewind (Session.Rewind, Monitor.Rewind) also places its
// restricted witness order on an engine freshly drawn from the pool, and
// fail is called with a description whenever that placement and the one
// on the decider's held engine disagree, on the answer or on the placed
// order. compared counts the rewinds checked. No session may run in
// another goroutine while the hook is installed or removed.
func WatchRewindPlacements(fail func(msg string)) (compared *int, stop func()) {
	compared = new(int)
	rewindOracle = func(d *decider, h *history.History, ro options, held bool) {
		*compared++
		e, reject := prepareEngine(h, d.mode(), ro)
		fresh := reject == "" && e.placeOrder(d.order, d.commit)
		same := fresh == held
		if reject == "" {
			same = same && (!fresh || slices.Equal(e.orderBuf, d.eng.orderBuf) && slices.Equal(e.commitBuf, d.eng.commitBuf))
			e.release()
		}
		if !same {
			fail(fmt.Sprintf("%v rewind to %d events: the held engine places the restricted order: %v, a pooled engine: %v\nhistory:\n%s",
				d.crit, h.Len(), held, fresh, h))
		}
	}
	return compared, func() { rewindOracle = nil }
}
