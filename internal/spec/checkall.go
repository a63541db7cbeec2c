package spec

import (
	"slices"
	"sync"

	"duopacity/internal/history"
)

// CheckAll decides every criterion of criteria on h and returns one
// verdict per entry, in the order asked. Each verdict's OK, Undecided and
// Reason are those of Check(h, c, opts...) — with a node limit, CheckAll
// can also accept where Check gives up, never the reverse — but CheckAll
// searches less, walking the paper's lattice instead of deciding each
// criterion from nothing.
//
// The criteria are decided strongest first, in AllCriteria order, and a
// criterion is offered every serialization accepted before it. Its own
// engine places each offered order in turn under its own conditions —
// roles, real-time order, conflict-order edges, read legality, the local
// clause of du-opacity — and if every transaction places, the criterion
// holds: the verdict accepts with Nodes == 0. Only when no offer places do
// the static rejection and the search run, exactly as Check runs them.
// Opacity is the exception in both directions: a du-opaque serialization
// settles it with the du-opacity verdict itself (Theorem 10, Lemma 1),
// node count included, and otherwise it takes CheckOpacity's bisect and
// walk from the du-opacity search already run.
//
// A verdict settled by an offer keeps the order its criterion's engine
// placed as its witness: that order is valid, but it need not be the one
// Check's search finds, so only such a verdict's String can differ from
// Check's, inside the witness brackets.
func CheckAll(h *history.History, criteria []Criterion, opts ...Option) []Verdict {
	o := buildOptions(opts)
	out := make([]Verdict, len(criteria))
	var offers []*witness
	et := edgeTrackerPool.Get().(*edgeTracker) // TMS2's edges, then RCO's
	defer edgeTrackerPool.Put(et)
	var du Verdict
	if slices.Contains(criteria, DUOpacity) || slices.Contains(criteria, Opacity) {
		du = decide(h, DUOpacity, duMode, o)
		if du.OK {
			offers = append(offers, du.w)
		}
	}
	for _, c := range AllCriteria() {
		if !slices.Contains(criteria, c) {
			continue
		}
		var v Verdict
		switch c {
		case DUOpacity:
			v = du
		case Opacity:
			v = du
			v.Criterion = Opacity
			if v = opacityFrom(h, v, o); v.OK && !du.OK {
				offers = append(offers, v.w)
			}
		default:
			if v = decide(h, c, criterionMode(h, c, o, et), o, offers...); v.OK {
				offers = append(offers, v.w)
			}
		}
		for i, ci := range criteria {
			if ci == c {
				out[i] = v
			}
		}
	}
	for i, c := range criteria {
		if out[i].Criterion == 0 {
			out[i] = Check(h, c, opts...) // not a criterion: Check's verdict
		}
	}
	return out
}

// edgeTrackerPool holds the trackers CheckAll builds conflict-order edges
// with: the engine reads the edges only while it prepares, so no verdict
// keeps them.
var edgeTrackerPool = sync.Pool{New: func() any { return new(edgeTracker) }}
