package spec

import (
	"testing"

	"duopacity/internal/history"
)

// CheckReference exposes the frozen PR 1 engine (reference.go) to the
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

// SessionHistory exposes a snapshot of the session's live history — the
// (checkpointed) history its witnesses serialize — to the differential
// tests.
func SessionHistory(s *Session) *history.History { return s.st.History() }

// BatchConflictEdges recomputes the batch checkers' edge set for c over
// the whole history — the oracle the incremental tracker must match.
func BatchConflictEdges(h *history.History, c Criterion, exemptAborted bool) [][2]history.TxnID {
	switch c {
	case TMS2:
		return tms2Edges(nil, h, exemptAborted)
	case RCO:
		return rcoEdges(nil, h)
	}
	return nil
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
