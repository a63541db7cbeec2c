package spec_test

import (
	"fmt"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// serialInput is follow-serial's stream as the certd stream benchmark
// records it: gl, 4 x 2 500 transactions, 16 objects, seed 1.
var serialInput = harness.Workload{Engine: "gl", Goroutines: 4, TxnsPerGoroutine: 2500, Objects: 16, OpsPerTxn: 4, ReadFraction: 0.5}

// edgeScans feeds evs through a five-criteria session and returns, per
// criterion with conflict-order edges, the edges its scans added and the
// candidate transactions they visited.
func edgeScans(t *testing.T, name string, window int, evs []history.Event) map[spec.Criterion][2]int {
	t.Helper()
	criteria := spec.MonitorableCriteria()
	s, err := spec.NewSession(criteria, spec.WithRetirement(window))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for _, e := range evs {
		if _, err := s.Append(e); err != nil {
			t.Fatalf("%s: %v: %v", name, e, err)
		}
	}
	got := make(map[spec.Criterion][2]int)
	for k, c := range criteria {
		if c == spec.TMS2 || c == spec.RCO {
			added, scanned := spec.SessionEdgeScans(s, k)
			got[c] = [2]int{added, scanned}
		}
	}
	return got
}

// TestEdgeScanOracle holds every TMS2 and RCO edge scan against the
// whole-window scan it replaced (spec.WatchEdgeScans): the tracker must add
// the same edges in the same order, less those whose source real-time
// precedes the target. It runs five-criteria sessions over the gl
// five-criteria stream and four tl2 4 x 50 streams of the
// follow-concurrent shape, at retire 0 (the window holds the whole stream)
// and 32 (the checkpoint sources no edge). The differential suite
// (feedCompareOpts, sessionCompare: the flip corpora and the fuzz seeds)
// runs under the same oracle.
func TestEdgeScanOracle(t *testing.T) {
	tl2, gl := followInputs[0], followInputs[1]
	for _, window := range []int{0, 32} {
		scans := spec.WatchEdgeScans(t)
		edgeScans(t, "gl five", window, recorded(t, gl.w, corpusSeed(0)))
		for i := 0; i < 4; i++ {
			edgeScans(t, fmt.Sprintf("tl2 stream %d", i), window, recorded(t, tl2.w, corpusSeed(i)))
		}
		if *scans == 0 {
			t.Fatalf("retire %d: no scan compared", window)
		}
		t.Logf("retire %d: %d scans compared", window, *scans)
	}
}

// TestEdgeScanCountGate pins, exactly, what the TMS2 and RCO edge scans
// cost on two five-criteria streams at retire 32: the edges added and the
// candidate transactions visited (every transaction but the target that a
// scan walks). follow-serial's gl stream leaves no transaction concurrent
// with a committed writer's reader, so it costs nothing, where scanning
// the live window added 131 176 edges and visited 609 385 candidates,
// every edge implied by real-time order. On a tl2 4 x 50 stream the scans
// add the 26 edges real-time order leaves open, visiting 856 candidates
// (the live-window scans: 724 edges, 20 454 candidates). TMS2 latches a
// violation early there, and a latched decider scans no more.
func TestEdgeScanCountGate(t *testing.T) {
	tl2 := followInputs[0].w
	for _, tc := range []struct {
		name string
		w    harness.Workload
		want map[spec.Criterion][2]int
	}{
		{"follow-serial (gl 4x2500, seed 1)", serialInput, map[spec.Criterion][2]int{spec.TMS2: {0, 0}, spec.RCO: {0, 0}}},
		{"tl2 4x50, seed 1", tl2, map[spec.Criterion][2]int{spec.TMS2: {1, 34}, spec.RCO: {25, 822}}},
	} {
		got := edgeScans(t, tc.name, 32, recorded(t, tc.w, 1))
		for _, c := range []spec.Criterion{spec.TMS2, spec.RCO} {
			if got[c] != tc.want[c] {
				t.Errorf("%s, %v: %d edges added, %d candidates scanned; want %d, %d",
					tc.name, c, got[c][0], got[c][1], tc.want[c][0], tc.want[c][1])
			}
		}
	}
}

// serialChain is a serial history of n committed transactions over n
// objects: T_k reads T_{k-1}'s object and writes its own.
func serialChain(n int) *history.History {
	b := history.NewBuilder()
	for k := 1; k <= n; k++ {
		id := history.TxnID(k)
		if k > 1 {
			b.Read(id, history.Var(fmt.Sprintf("x%d", k-1)), history.Value(k-1))
		}
		b.Write(id, history.Var(fmt.Sprintf("x%d", k)), history.Value(k)).Commit(id)
	}
	return b.History()
}

// BenchmarkConflictEdges prices the batch checkers' conflict-order edges
// (TMS2 then RCO, spec.BatchConflictEdges) and a CheckAll of all seven
// criteria on two inputs, each history indexed before the timer starts:
// the 100 certify-shape episodes (RunInterleaved, 4 goroutines x 3
// transactions x 4 operations over 4 objects, seeds 1-25 of tl2, norec,
// pdur and dstm; one episode per iteration) and a 3 000-transaction serial
// chain over 3 000 objects.
func BenchmarkConflictEdges(b *testing.B) {
	var episodes []*history.History
	for _, engine := range []string{"tl2", "norec", "pdur", "dstm"} {
		for seed := int64(1); seed <= 25; seed++ {
			h := farmEpisode(b, engine, seed)
			h.Index()
			episodes = append(episodes, h)
		}
	}
	chain := serialChain(3000)
	chain.Index()
	criteria := spec.AllCriteria()
	for _, in := range []struct {
		name string
		hs   []*history.History
	}{{"episodes", episodes}, {"chain3000", []*history.History{chain}}} {
		b.Run(in.name+"/edges", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := in.hs[i%len(in.hs)]
				spec.BatchConflictEdges(h, spec.TMS2, false)
				spec.BatchConflictEdges(h, spec.RCO, false)
			}
		})
		b.Run(in.name+"/checkall", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec.CheckAll(in.hs[i%len(in.hs)], criteria)
			}
		})
	}
}
