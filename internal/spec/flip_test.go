package spec_test

import (
	"fmt"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

// followInputs are the benchmark's two follow workloads (benchmark/
// workloads.json), recorded under the deterministic stepper.
type followInput struct {
	name     string
	w        harness.Workload
	criteria []spec.Criterion
}

var followInputs = []followInput{
	{"tl2-du", harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 128, OpsPerTxn: 4, ReadFraction: 0.5},
		[]spec.Criterion{spec.DUOpacity}},
	{"gl-five", harness.Workload{Engine: "gl", Goroutines: 4, TxnsPerGoroutine: 500, Objects: 16, OpsPerTxn: 4, ReadFraction: 0.5},
		spec.MonitorableCriteria()},
}

// corpusSeed is the seed of stream i of connection 0 in a `go run
// ./benchmark -seed 1` run (benchmark/workloads.go, subSeed).
func corpusSeed(i int) int64 { return 1*1_000_003 + int64(i)*101 + 1 }

func recorded(tb testing.TB, w harness.Workload, seed int64) []history.Event {
	tb.Helper()
	w.Seed = seed
	h, _, err := harness.RunInterleaved(w)
	if err != nil {
		tb.Fatal(err)
	}
	return h.Events()
}

// BenchmarkSessionAppend is Session.Append alone on the follow workloads'
// inputs, retire=32 as certd runs them: the number a pprof of the decider
// is read against.
func BenchmarkSessionAppend(b *testing.B) {
	for _, in := range followInputs {
		b.Run(in.name, func(b *testing.B) {
			var streams [][]history.Event
			for i := 0; i < 8; i++ {
				streams = append(streams, recorded(b, in.w, corpusSeed(i)))
			}
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				evs := streams[i%len(streams)]
				s, err := spec.NewSession(in.criteria, spec.WithRetirement(32))
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range evs {
					if _, err := s.Append(e); err != nil {
						b.Fatal(err)
					}
				}
				events += len(evs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// TestFlipRestrictedCheck pins what a commit-decision flip re-checks on
// hand-built histories, one response at a time: the later readers of the
// flipped transaction's write set and nothing else. Every flip also runs
// under the equivalence oracle (spec.WatchFlips).
func TestFlipRestrictedCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *history.History
		// What the last event — the tryC response that flips T1 — must do.
		rechecked, searches, aborts int
		ok                          bool
		order                       []history.TxnID // witness order after it, when ok
	}{
		{
			// T2, placed after T1, read X's old value while tryC_1 was
			// pending: committing T1 in place would feed T2 the new one, so
			// the restricted check refuses and the search moves T2 first.
			name: "later reader of the write set",
			h: history.NewBuilder().
				Write(1, "X", 1).InvTryCommit(1).
				Read(2, "X", 0).
				ResCommit(1).History(),
			rechecked: 1, searches: 1, ok: true, order: []history.TxnID{2, 1},
		},
		{
			// The later readers touch only Y and Z: nothing T1 installs is
			// visible to them, the flip is accepted without a single read
			// re-checked and the order stands.
			name: "later readers of other objects",
			h: history.NewBuilder().
				Write(1, "X", 1).InvTryCommit(1).
				Read(2, "Y", 0).Read(3, "Z", 0).
				ResCommit(1).History(),
			rechecked: 0, searches: 0, ok: true, order: []history.TxnID{1, 2, 3},
		},
		{
			// The other direction: T2 read T1's value, which only a witness
			// committing the pending tryC_1 explains (the search adopts
			// one); tryC_1 then aborts, the flip takes X=1 away from under
			// T2's read, and no order brings it back.
			name: "abort of a tryC the witness committed",
			h: history.NewBuilder().
				Write(1, "X", 1).InvTryCommit(1).
				Read(2, "X", 1).Read(3, "Y", 0).
				ResCommitAbort(1).History(),
			rechecked: 1, searches: 1, aborts: 1, ok: false,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := spec.NewMonitor(spec.DUOpacity)
			if err != nil {
				t.Fatal(err)
			}
			o := spec.WatchFlips(t)
			evs := tc.h.Events()
			for _, e := range evs[:len(evs)-1] {
				if v, err := m.Append(e); err != nil || !v.OK {
					t.Fatalf("%v: verdict %+v, err %v", e, v, err)
				}
			}
			before := m.Counters()
			searches, _ := m.Stats()
			v, err := m.Append(evs[len(evs)-1])
			if err != nil {
				t.Fatal(err)
			}
			after := m.Counters()
			if o.Flips != 1 || o.Aborts != tc.aborts || after.Flips-before.Flips != 1 {
				t.Fatalf("flips: oracle saw %+v, counters %d -> %d, want exactly the last response", *o, before.Flips, after.Flips)
			}
			if got := after.ReadsRechecked - before.ReadsRechecked; got != tc.rechecked {
				t.Errorf("flip re-checked %d reads, want %d", got, tc.rechecked)
			}
			if s, _ := m.Stats(); s-searches != tc.searches {
				t.Errorf("flip ran %d searches, want %d", s-searches, tc.searches)
			}
			if want := spec.Check(tc.h, spec.DUOpacity); v.OK != tc.ok || v.OK != want.OK {
				t.Fatalf("monitor %+v, batch %+v, want OK=%v", v, want, tc.ok)
			}
			if !v.OK {
				return
			}
			if err := spec.VerifySerialization(tc.h, v.Witness()); err != nil {
				t.Fatalf("witness invalid: %v", err)
			}
			var order []history.TxnID
			for _, st := range v.Witness().Txns {
				order = append(order, st.ID)
			}
			if fmt.Sprint(order) != fmt.Sprint(tc.order) {
				t.Errorf("witness order %v, want %v", order, tc.order)
			}
		})
	}
}

// TestFlipEquivalenceEngineStreams runs the equivalence oracle over what
// real engines produce under the deterministic stepper with 4 threads:
// small streams through the whole per-prefix differential (five-criteria
// session, five monitors, batch Check, witness validation), windows 0 and
// 4, and streams of the follow-concurrent shape through a five-criteria
// session with the oracle alone. ple is the engine that violates
// du-opacity, so its deciders latch one by one while the rest carry on.
func TestFlipEquivalenceEngineStreams(t *testing.T) {
	for _, engine := range []string{"tl2", "norec", "pdur", "dstm", "ple"} {
		t.Run(engine, func(t *testing.T) {
			flips := 0
			for seed := int64(1); seed <= 3; seed++ {
				w := harness.Workload{Engine: engine, Goroutines: 4, TxnsPerGoroutine: 2, Objects: 3, OpsPerTxn: 3, Seed: seed}
				h, _, err := harness.RunInterleaved(w)
				if err != nil {
					t.Fatal(err)
				}
				for _, window := range []int{0, 4} {
					sessionCompare(t, h, window, 0)
				}
				w.TxnsPerGoroutine, w.Objects, w.OpsPerTxn = 40, 24, 4
				s, err := spec.NewSession(spec.MonitorableCriteria(), spec.WithRetirement(8), spec.WithNodeLimit(200_000))
				if err != nil {
					t.Fatal(err)
				}
				o := spec.WatchFlips(t)
				for _, e := range recorded(t, w, seed) {
					if _, err := s.Append(e); err != nil {
						t.Fatal(err)
					}
				}
				if c := s.Counters(); c.Flips != o.Flips {
					t.Fatalf("seed %d: counters report %d flips, the oracle saw %d", seed, c.Flips, o.Flips)
				}
				flips += o.Flips
			}
			if flips == 0 {
				t.Fatal("no commit-decision flip in any stream: the oracle checked nothing")
			}
		})
	}
}

// TestFlipCountGate is the machine-independent reading of "a flip costs
// what it touches", in counts rather than nanoseconds. On a serial (gl)
// stream the reads re-checked per flip do not depend on the retirement
// window, while what a whole-order revalidate would have checked grows
// with it; on the follow-concurrent corpus (tl2, 4 x 50 transactions, 128
// objects, retire=32) the flips re-check at most a tenth of that — and,
// there, more retirement probes are skipped as unchanged than run.
func TestFlipCountGate(t *testing.T) {
	tl2, gl := followInputs[0], followInputs[1]
	run := func(in followInput, streams, window int) (c spec.Counters, full int) {
		for i := 0; i < streams; i++ {
			s, err := spec.NewSession(in.criteria, spec.WithRetirement(window))
			if err != nil {
				t.Fatal(err)
			}
			o := spec.WatchFlips(t)
			for _, e := range recorded(t, in.w, corpusSeed(i)) {
				if vs, err := s.Append(e); err != nil || !vs[0].OK {
					t.Fatalf("%s stream %d: %v: verdict %+v, err %v", in.name, i, e, vs[0], err)
				}
			}
			sc := s.Counters()
			c.Flips += sc.Flips
			c.ReadsRechecked += sc.ReadsRechecked
			c.RetireProbes += sc.RetireProbes
			c.RetireProbesSkipped += sc.RetireProbesSkipped
			full += o.FullReads
		}
		return c, full
	}
	narrow, fullNarrow := run(gl, 1, 32)
	wide, fullWide := run(gl, 1, 128)
	t.Logf("gl 4x500, five criteria: retire=32 %+v (whole-order %d reads), retire=128 %+v (whole-order %d reads)", narrow, fullNarrow, wide, fullWide)
	if narrow.Flips == 0 || narrow.Flips != wide.Flips || narrow.ReadsRechecked != wide.ReadsRechecked {
		t.Errorf("reads re-checked per flip depend on the window: %d/%d at retire=32, %d/%d at retire=128",
			narrow.ReadsRechecked, narrow.Flips, wide.ReadsRechecked, wide.Flips)
	}
	if fullWide < 2*fullNarrow {
		t.Errorf("whole-order revalidation did not grow with the window (%d -> %d reads): the gate compares nothing", fullNarrow, fullWide)
	}
	c, full := run(tl2, 8, 32)
	t.Logf("tl2 4x50 corpus, du, retire=32: %+v, whole-order %d reads", c, full)
	if c.Flips == 0 || 10*c.ReadsRechecked > full {
		t.Errorf("%d flips re-checked %d reads; want at most a tenth of the whole-order %d", c.Flips, c.ReadsRechecked, full)
	}
	if c.RetireProbesSkipped <= c.RetireProbes {
		t.Errorf("retirement probes: %d run, %d skipped; want more skipped than run", c.RetireProbes, c.RetireProbesSkipped)
	}
}

// FuzzMonitorFlips is the monitor half of FuzzCheckerDifferential on its
// own budget, for the flip-equivalence oracle: the decoded history goes
// through a one-criterion monitor per monitorable criterion and a
// five-criteria session at every window the sel byte draws, all with the
// oracle installed (feedCompareOpts and sessionCompare install it) and
// pinned per response prefix against batch Check.
func FuzzMonitorFlips(f *testing.F) {
	f.Add([]byte{}, byte(0))
	for _, h := range []*history.History{litmus.Figure4(), litmus.Figure5(), litmus.Figure6()} {
		if data, ok := encodeHistory(h); ok {
			f.Add(data, byte(0))
			f.Add(data, byte(1))
		}
	}
	for _, c := range pdurSeeds() {
		f.Add(c.data, c.sel)
	}
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		h := historyFromBytes(data)
		if h.Len() == 0 {
			t.Skip()
		}
		window := []int{0, 1, 4, 32}[int(sel)%4]
		for _, c := range spec.MonitorableCriteria() {
			feedCompareOpts(t, c, h, window, c == spec.TMS2 && sel&0x80 != 0)
		}
		sessionCompare(t, h, window, 0)
	})
}
