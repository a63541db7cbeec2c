package spec

import (
	"slices"
	"sync"

	"duopacity/internal/history"
)

// CheckAll decides every criterion of criteria on h and returns one
// verdict per entry, in the order asked. Each verdict's OK, Undecided,
// Reason and rendering (String, Witness) are those of Check(h, c, opts...)
// — with a node limit, CheckAll can also accept where Check gives up,
// never the reverse — but CheckAll searches less, walking the paper's
// lattice instead of deciding each criterion from nothing.
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
// A verdict settled by an offer owes its criterion's own witness: the
// first Witness (or String) call runs the search Check would have run and
// returns its serialization. If that search cannot decide — the node
// limit, or a context cancelled by then — the offered order, which the
// criterion's engine has already accepted, is the witness.
func CheckAll(h *history.History, criteria []Criterion, opts ...Option) []Verdict {
	o := buildOptions(opts)
	out := make([]Verdict, len(criteria))
	var offers []*witness
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
			if v = decide(h, c, criterionMode(h, c, o), o, offers...); v.OK {
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

// witnessSearch is the search a verdict settled by an offered order still
// owes its witness (see CheckAll). It runs at most once, on the first
// settle; order and commit then hold the serialization the verdict
// renders.
type witnessSearch struct {
	once   sync.Once
	h      *history.History
	c      Criterion
	mode   searchMode
	o      options
	order  []int
	commit []bool
}

// settle returns the witness's serialization: its own order, or for a
// verdict settled by an offer, the search's (the offered order when the
// search cannot decide).
func (w *witness) settle() ([]int, []bool) {
	s := w.search
	if s == nil {
		return w.order, w.commit
	}
	s.once.Do(func() {
		s.order, s.commit = w.order, w.commit
		if v := decide(s.h, s.c, s.mode, s.o); v.OK {
			s.order, s.commit = v.w.order, v.w.commit
		}
		s.h = nil
	})
	return s.order, s.commit
}
