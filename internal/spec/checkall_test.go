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
// criterion, Check's verdict: the same OK, Undecided and Reason and the
// same String() — witness included. A verdict settled by an offered
// serialization accepts with Nodes == 0; every other verdict explored
// Check's node count. Under a node limit CheckAll may accept where Check
// bails, but only by an offer; the rendering is then not compared (Check
// has no witness to render). It returns CheckAll's verdicts.
func checkAllCompare(t testing.TB, h *history.History, opts ...spec.Option) []spec.Verdict {
	t.Helper()
	criteria := spec.AllCriteria()
	got := spec.CheckAll(h, criteria, opts...)
	for i, c := range criteria {
		g, w := got[i], spec.Check(h, c, opts...)
		settled := spec.SettledByOffer(g)
		if g.Criterion != c {
			t.Fatalf("verdict %d is for %v, want %v", i, g.Criterion, c)
		}
		if settled != (g.OK && g.Nodes == 0) {
			t.Fatalf("%v: settled by an offer %v, but OK=%v with %d nodes\nhistory:\n%s", c, settled, g.OK, g.Nodes, h)
		}
		if !settled && g.Nodes != w.Nodes {
			t.Fatalf("%v: CheckAll searched %d nodes, Check %d\nhistory:\n%s", c, g.Nodes, w.Nodes, h)
		}
		if w.Undecided && settled {
			continue
		}
		if g.OK != w.OK || g.Undecided != w.Undecided || g.Reason != w.Reason || g.String() != w.String() {
			t.Fatalf("CheckAll and Check disagree\n  CheckAll: %s\n  Check:    %s\nhistory:\n%s", g, w, h)
		}
	}
	latticeHolds(t, h, got)
	return got
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

// edgesMatchReference asserts that the dense conflict-order edge builders
// return the frozen string-keyed builders' lists, in the same order, for
// both TMS2 readings.
func edgesMatchReference(t testing.TB, h *history.History) {
	t.Helper()
	for _, c := range []spec.Criterion{spec.TMS2, spec.RCO} {
		for _, exempt := range []bool{false, true} {
			got, want := spec.BatchConflictEdges(h, c, exempt), spec.RefConflictEdges(h, c, exempt)
			if !slices.Equal(got, want) {
				t.Fatalf("%v (aborted-reader exemption %v): dense edges %v, reference %v\nhistory:\n%s", c, exempt, got, want, h)
			}
		}
	}
}

// TestCheckAllExhaustive is CheckAll's small-scope oracle: on every
// history of opacityScope (89 680 histories, 627 760 verdicts) each
// criterion's verdict is Check's and the lattice holds.
func TestCheckAllExhaustive(t *testing.T) {
	settled, searched := 0, 0
	n := enum.Walk(opacityScope(), func(node enum.Node) interface{} {
		if node.H.Len() == 0 {
			return nil
		}
		for _, v := range checkAllCompare(t, node.H) {
			if spec.SettledByOffer(v) {
				settled++
			} else if v.OK {
				searched++
			}
		}
		return nil
	})
	t.Logf("%d histories: %d accepts settled by an offered serialization, %d by a search", n, settled, searched)
	if settled == 0 || searched == 0 {
		t.Fatalf("scope misses a path: %d settled, %d searched", settled, searched)
	}
}

// TestConflictEdgesMatchReference pins the dense TMS2 and RCO edge
// builders to the reference engine's frozen copies on the differential
// fuzz corpus, the per-prefix differential corpus (the litmus histories,
// generated histories and their planted violations), the paper's Figures 5
// and 6, and certify episodes of every engine.
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
			check(farmEpisode(t, engine, seed))
		}
	}
	if edges == 0 {
		t.Fatal("no conflict-order edges in the inputs")
	}
}
