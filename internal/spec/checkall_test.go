package spec_test

import (
	"slices"
	"testing"

	"duopacity/internal/enum"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

// checkAllCompare runs CheckAll over every criterion and asserts, per
// criterion, Check's verdict: the same OK, Undecided and Reason, and for
// every verdict that searched the same node count and String(). An accept
// with no nodes is a placement (a search counts its first node): its
// witness is checked by placedWitnessHolds instead, since the placed order
// need not be the one Check's search finds. Under a node limit CheckAll
// may accept where Check bails, but only by a placement. It returns
// CheckAll's verdicts.
func checkAllCompare(t testing.TB, h *history.History, opts ...spec.Option) []spec.Verdict {
	t.Helper()
	criteria := spec.AllCriteria()
	got := spec.CheckAll(h, criteria, opts...)
	for i, c := range criteria {
		g, w := got[i], spec.Check(h, c, opts...)
		if g.Criterion != c {
			t.Fatalf("verdict %d is for %v, want %v", i, g.Criterion, c)
		}
		placed := g.OK && g.Nodes == 0
		if placed {
			placedWitnessHolds(t, h, g, got[:i])
			if w.Undecided {
				continue
			}
		}
		if g.OK != w.OK || g.Undecided != w.Undecided || g.Reason != w.Reason ||
			!placed && (g.Nodes != w.Nodes || g.String() != w.String()) {
			t.Fatalf("CheckAll and Check disagree\n  CheckAll: %s (%d nodes)\n  Check:    %s (%d nodes)\nhistory:\n%s", g, g.Nodes, w, w.Nodes, h)
		}
	}
	latticeHolds(t, h, got)
	return got
}

// placedWitnessHolds asserts what the witness of v, an accept CheckAll
// settled by a placement, is: the witness of an earlier accepted verdict
// (earlier holds CheckAll's verdicts before v's, in AllCriteria order)
// restricted to the transactions v's criterion serializes, and for TMS2 and
// RCO an order of every edge of the frozen reference builders (the options
// checkAllCompare is given carry no aborted-reader exemption).
func placedWitnessHolds(t testing.TB, h *history.History, v spec.Verdict, earlier []spec.Verdict) {
	t.Helper()
	w := v.Witness()
	found := false
	for _, e := range earlier {
		if e.OK && restrictedTo(e.Witness(), h, v.Criterion) == w.String() {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("%v: placed witness [%s] is no earlier accepted witness restricted to its transactions\nhistory:\n%s", v.Criterion, w, h)
	}
	for _, edge := range spec.RefConflictEdges(h, v.Criterion, false) {
		if from, to := w.Position(edge[0]), w.Position(edge[1]); from < 0 || to < 0 || from >= to {
			t.Fatalf("%v: placed witness [%s] breaks the edge T%d -> T%d\nhistory:\n%s", v.Criterion, w, edge[0], edge[1], h)
		}
	}
}

// restrictedTo renders s restricted to the transactions c serializes: the
// committed and commit-pending ones for the serializability baselines,
// all of them otherwise.
func restrictedTo(s *history.Seq, h *history.History, c spec.Criterion) string {
	r := &history.Seq{}
	for _, tx := range s.Txns {
		info := h.Txn(tx.ID)
		if c != spec.StrictSerializability && c != spec.Serializability || info.Committed() || info.CommitPending() {
			r.Txns = append(r.Txns, tx)
		}
	}
	return r.String()
}

// lattice lists the implications between the criteria, the stronger
// first: du-opacity implies opacity (Theorem 10), opacity final-state
// opacity (Definition 5), final-state opacity restricted to the committed
// transactions strict serializability, which implies serializability; TMS2
// and RCO are final-state opacity plus conflict-order edges.
var lattice = [][2]spec.Criterion{
	{spec.DUOpacity, spec.Opacity},
	{spec.Opacity, spec.FinalStateOpacity},
	{spec.FinalStateOpacity, spec.StrictSerializability},
	{spec.StrictSerializability, spec.Serializability},
	{spec.TMS2, spec.FinalStateOpacity},
	{spec.RCO, spec.FinalStateOpacity},
}

// latticeHolds asserts every implication of lattice between decided
// verdicts, given in AllCriteria order.
func latticeHolds(t testing.TB, h *history.History, vs []spec.Verdict) {
	t.Helper()
	by := make(map[spec.Criterion]spec.Verdict, len(vs))
	for _, v := range vs {
		by[v.Criterion] = v
	}
	for _, l := range lattice {
		if strong, weak := by[l[0]], by[l[1]]; strong.OK && !weak.OK && !weak.Undecided {
			t.Fatalf("%v holds but %v does not: %s\nhistory:\n%s", l[0], l[1], weak, h)
		}
	}
}

// edgesMatchReference asserts that the edges the batch checkers build
// (the edge tracker's build) are the frozen string-keyed builders' lists
// less the edges whose source real-time precedes the target, as sets —
// a duplicate still fails — for both TMS2 readings. Real-time order is
// read off h's events (realTimeBefore), not off the index the builders
// use.
func edgesMatchReference(t testing.TB, h *history.History) {
	t.Helper()
	before := realTimeBefore(h)
	for _, c := range []spec.Criterion{spec.TMS2, spec.RCO} {
		for _, exempt := range []bool{false, true} {
			var want [][2]history.TxnID
			for _, e := range spec.RefConflictEdges(h, c, exempt) {
				if !before(e[0], e[1]) {
					want = append(want, e)
				}
			}
			if got := sortedEdges(spec.BatchConflictEdges(h, c, exempt)); !slices.Equal(got, sortedEdges(want)) {
				t.Fatalf("%v (aborted-reader exemption %v): built edges %v, reference less real-time order %v\nhistory:\n%s", c, exempt, got, want, h)
			}
		}
	}
}

// realTimeBefore returns h's real-time order (Definition 3) computed from
// its events: T1 precedes T2 when T1's last event commits or aborts it and
// comes before T2's first event.
func realTimeBefore(h *history.History) func(t1, t2 history.TxnID) bool {
	first, last, ended := map[history.TxnID]int{}, map[history.TxnID]int{}, map[history.TxnID]bool{}
	for i, e := range h.Events() {
		if _, ok := first[e.Txn]; !ok {
			first[e.Txn] = i
		}
		last[e.Txn], ended[e.Txn] = i, e.Kind == history.Res && e.Out != history.OutOK
	}
	return func(t1, t2 history.TxnID) bool { return ended[t1] && last[t1] < first[t2] }
}

// TestCheckAllExhaustive is CheckAll's small-scope oracle: on every
// history of opacityScope (89 680 histories, 627 760 verdicts) each
// criterion's verdict is Check's and the lattice holds.
func TestCheckAllExhaustive(t *testing.T) {
	placed, searched := 0, 0
	n := enum.Walk(opacityScope(), func(node enum.Node) interface{} {
		if node.H.Len() == 0 {
			return nil
		}
		for _, v := range checkAllCompare(t, node.H) {
			if v.OK && v.Nodes == 0 {
				placed++
			} else if v.OK {
				searched++
			}
		}
		return nil
	})
	t.Logf("%d histories: %d accepts settled by a placement, %d by a search", n, placed, searched)
	if placed == 0 || searched == 0 {
		t.Fatalf("scope misses a path: %d placed, %d searched", placed, searched)
	}
}

// TestConflictEdgesMatchReference pins the TMS2 and RCO edges the batch
// checkers build (the edge tracker's build) to the reference engine's
// frozen builders, as sets, less the edges real-time order implies
// (edgesMatchReference), on the differential fuzz corpus, the per-prefix
// differential corpus (the litmus histories, generated histories and
// their planted violations), the paper's Figures 5 and 6, and certify
// episodes of every engine. The certify episodes also go through
// checkAllCompare, which holds every TMS2 / RCO witness a placement
// settled against the unfiltered reference edges.
func TestConflictEdgesMatchReference(t *testing.T) {
	edges := 0
	check := func(h *history.History) {
		edgesMatchReference(t, h)
		edges += len(spec.BatchConflictEdges(h, spec.TMS2, false)) + len(spec.BatchConflictEdges(h, spec.RCO, false))
	}
	for _, c := range fuzzCorpus() {
		check(historyFromBytes(c.data))
	}
	for _, c := range differentialCorpus() {
		check(c.h)
	}
	check(litmus.Figure5())
	check(litmus.Figure6())
	for _, engine := range engines.Names() {
		for seed := int64(1); seed <= 20; seed++ {
			h := farmEpisode(t, engine, seed)
			check(h)
			checkAllCompare(t, h)
		}
	}
	if edges == 0 {
		t.Fatal("no conflict-order edges in the inputs")
	}
}
