package spec

import "duopacity/internal/history"

// CheckReference exposes the frozen PR 1 engine (reference.go) to the
// differential tests and the fuzz target in package spec_test.
func CheckReference(h *history.History, c Criterion, opts ...Option) Verdict {
	return checkReference(h, c, buildOptions(opts))
}

// MonitorEdges exposes a snapshot of the monitor's incrementally
// maintained conflict-order edge set (nil for criteria without one) so
// the differential tests can pin it against the batch edge builders.
func MonitorEdges(m *Monitor) [][2]history.TxnID {
	et := m.s.deciders[0].edges
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
		return tms2Edges(h, exemptAborted)
	case RCO:
		return rcoEdges(h)
	}
	return nil
}
