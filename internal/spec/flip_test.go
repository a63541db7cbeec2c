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

// TestFlipRestrictedCheck pins what a move to the end and a
// commit-decision flip re-check on hand-built histories, one response at a
// time: a move the moved transaction's own reads that a committed writer
// it passes could change, a flip the later readers of the flipped
// transaction's write set, and nothing else. Every move and flip also
// runs under the equivalence oracle (spec.WatchFlips).
func TestFlipRestrictedCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *history.History
		// What the last event — a response by T1 or T2 — must do.
		flips, moves, rechecked, searches, aborts int
		ok                                        bool
		order                                     []history.TxnID // witness order after it, when ok
	}{
		{
			// T1 commits; the witness aborted it in place and T2, placed
			// after it, read X's old value. T1 moves to the end, committed:
			// it has no read for a writer it passes to change, so nothing is
			// re-checked and T2 keeps its value.
			name: "committer moved to the end",
			h: history.NewBuilder().
				Write(1, "X", 1).InvTryCommit(1).
				Read(2, "X", 0).
				ResCommit(1).History(),
			moves: 1, ok: true, order: []history.TxnID{2, 1},
		},
		{
			// T2, placed before the committed T1, reads T1's X=1: the
			// read fails in place, T2 moves to the end and only that read
			// is re-checked — T1 writes nothing T2's earlier read of Y saw.
			name: "reader moved to the end",
			h: history.NewBuilder().
				Read(2, "Y", 0).
				Write(1, "X", 1).Commit(1).
				Read(2, "X", 1).History(),
			moves: 1, rechecked: 1, ok: true, order: []history.TxnID{1, 2},
		},
		{
			// T1 read Y=0, and T3, placed after it, has committed Y=1:
			// moving T1 to the end would feed its read the new value, so
			// the move is refused (one read re-checked). T2, placed after
			// T1, read X's old value while tryC_1 was pending: committing
			// T1 in place would feed T2 the new one, so the flip is refused
			// too (one more read) and the search moves T2 first.
			name: "later reader of the write set",
			h: history.NewBuilder().
				Write(1, "X", 1).Read(1, "Y", 0).InvTryCommit(1).
				Read(2, "X", 0).
				Write(3, "Y", 1).Commit(3).
				ResCommit(1).History(),
			flips: 1, moves: 1, rechecked: 2, searches: 1, ok: true, order: []history.TxnID{2, 1, 3},
		},
		{
			// The move is refused as above (T4, placed right after T1,
			// overwrote the W that T1 read), and the later readers touch
			// only Y and Z: nothing T1 installs is visible to them, the
			// flip is accepted without a single read of theirs re-checked
			// and the order stands — T1's decision restored from the move,
			// not T4's.
			name: "later readers of other objects",
			h: history.NewBuilder().
				Write(1, "X", 1).Read(1, "W", 0).InvTryCommit(1).
				Write(4, "W", 1).Commit(4).
				Read(2, "Y", 0).Read(3, "Z", 0).
				ResCommit(1).History(),
			flips: 1, moves: 1, rechecked: 1, ok: true, order: []history.TxnID{1, 4, 2, 3},
		},
		{
			// The other direction: T2 read T1's value, which only a witness
			// committing the pending tryC_1 explains (the search adopts
			// one); tryC_1 then aborts, the flip takes X=1 away from under
			// T2's read, and no order brings it back. A committed position
			// is never moved.
			name: "abort of a tryC the witness committed",
			h: history.NewBuilder().
				Write(1, "X", 1).InvTryCommit(1).
				Read(2, "X", 1).Read(3, "Y", 0).
				ResCommitAbort(1).History(),
			flips: 1, rechecked: 1, searches: 1, aborts: 1, ok: false,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := spec.NewMonitor(spec.DUOpacity)
			if err != nil {
				t.Fatal(err)
			}
			o := spec.WatchFlips(t)
			spec.WatchLookups(t)
			evs := tc.h.Events()
			for _, e := range evs[:len(evs)-1] {
				if v, err := m.Append(e); err != nil || !v.OK {
					t.Fatalf("%v: verdict %+v, err %v", e, v, err)
				}
			}
			before := m.Counters()
			searches, _ := m.Stats()
			*o = spec.FlipOracle{}
			v, err := m.Append(evs[len(evs)-1])
			if err != nil {
				t.Fatal(err)
			}
			after := m.Counters()
			if o.Flips != tc.flips || o.Moves != tc.moves || o.Aborts != tc.aborts ||
				after.Flips-before.Flips != tc.flips || after.Moves-before.Moves != tc.moves {
				t.Fatalf("last response: oracle saw %+v, counters %+v -> %+v, want %d flips (%d aborts), %d moves",
					*o, before, after, tc.flips, tc.aborts, tc.moves)
			}
			if got := after.ReadsRechecked - before.ReadsRechecked; got != tc.rechecked {
				t.Errorf("move and flip re-checked %d reads, want %d", got, tc.rechecked)
			}
			if s, _ := m.Stats(); s-searches != tc.searches {
				t.Errorf("last response ran %d searches, want %d", s-searches, tc.searches)
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
			flips, moves := 0, 0
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
				spec.WatchLookups(t)
				for _, e := range recorded(t, w, seed) {
					if _, err := s.Append(e); err != nil {
						t.Fatal(err)
					}
				}
				if c := s.Counters(); c.Flips != o.Flips || c.Moves != o.Moves {
					t.Fatalf("seed %d: counters report %d flips and %d moves, the oracle saw %d and %d", seed, c.Flips, c.Moves, o.Flips, o.Moves)
				}
				flips += o.Flips
				moves += o.Moves
			}
			if flips == 0 || moves == 0 {
				t.Fatalf("%d commit-decision flips and %d moves in all streams: the oracle checked one kind not at all", flips, moves)
			}
		})
	}
}

// TestFlipCountGate is the machine-independent reading of "a flip costs
// what it touches" and "a transaction serializes at its latest event", in
// counts rather than nanoseconds. On a serial (gl) stream the reads
// re-checked per flip do not depend on the retirement window, while what
// a whole-order placement would have checked grows with it, and nothing
// searches; on the follow-concurrent corpus (tl2, 4 x 50 transactions, 128
// objects, retire=32) committers and failing readers move to the end of
// the witness, nothing searches, the moves and flips re-check at most a
// tenth of what the whole order holds — and, there, more retirement
// probes are skipped as unchanged than run. A long tl2 stream (4 x 650
// transactions, seed 2), where nothing retires for most of the run and
// the live window reaches thousands of transactions, does not search
// either.
func TestFlipCountGate(t *testing.T) {
	tl2, gl := followInputs[0], followInputs[1]
	type tally struct {
		spec.Counters
		searches, full int
	}
	feed := func(name string, criteria []spec.Criterion, window int, evs []history.Event) (c tally) {
		s, err := spec.NewSession(criteria, spec.WithRetirement(window))
		if err != nil {
			t.Fatal(err)
		}
		o := spec.WatchFlips(t)
		spec.WatchLookups(t)
		for _, e := range evs {
			if vs, err := s.Append(e); err != nil || !vs[0].OK {
				t.Fatalf("%s: %v: verdict %+v, err %v", name, e, vs[0], err)
			}
		}
		c.Counters = s.Counters()
		c.searches, _ = s.Stats()
		c.full = o.FullReads
		return c
	}
	run := func(in followInput, streams, window int) (c tally) {
		for i := 0; i < streams; i++ {
			sc := feed(fmt.Sprintf("%s stream %d", in.name, i), in.criteria, window, recorded(t, in.w, corpusSeed(i)))
			c.Flips += sc.Flips
			c.Moves += sc.Moves
			c.ReadsRechecked += sc.ReadsRechecked
			c.RetireProbes += sc.RetireProbes
			c.RetireProbesSkipped += sc.RetireProbesSkipped
			c.searches += sc.searches
			c.full += sc.full
		}
		return c
	}
	narrow, wide := run(gl, 1, 32), run(gl, 1, 128)
	t.Logf("gl 4x500, five criteria: retire=32 %+v, retire=128 %+v", narrow, wide)
	if narrow.Flips == 0 || narrow.Flips != wide.Flips || narrow.ReadsRechecked != wide.ReadsRechecked {
		t.Errorf("reads re-checked per flip depend on the window: %d/%d at retire=32, %d/%d at retire=128",
			narrow.ReadsRechecked, narrow.Flips, wide.ReadsRechecked, wide.Flips)
	}
	if wide.full < 2*narrow.full {
		t.Errorf("whole-order placement did not grow with the window (%d -> %d reads): the gate compares nothing", narrow.full, wide.full)
	}
	if narrow.searches != 0 || wide.searches != 0 {
		t.Errorf("the serial stream searched: %d times at retire=32, %d at retire=128", narrow.searches, wide.searches)
	}
	c := run(tl2, 8, 32)
	t.Logf("tl2 4x50 corpus, du, retire=32: %+v", c)
	if c.Flips+c.Moves == 0 || 10*c.ReadsRechecked > c.full {
		t.Errorf("%d flips and %d moves re-checked %d reads; want at most a tenth of the whole-order %d", c.Flips, c.Moves, c.ReadsRechecked, c.full)
	}
	if c.searches != 0 || c.Moves == 0 {
		t.Errorf("%d searches and %d moves; want no search, the commits moving to the end instead", c.searches, c.Moves)
	}
	if c.RetireProbesSkipped <= c.RetireProbes {
		t.Errorf("retirement probes: %d run, %d skipped; want more skipped than run", c.RetireProbes, c.RetireProbesSkipped)
	}
	long := tl2.w
	long.TxnsPerGoroutine = 650
	lc := feed("tl2 4x650 seed 2", tl2.criteria, 32, recorded(t, long, 2))
	t.Logf("tl2 4x650, seed 2, du, retire=32: %+v", lc)
	if lc.searches != 0 {
		t.Errorf("the long tl2 stream searched %d times; want none", lc.searches)
	}
}

// TestCheckReadLookupOracle: a read is checked against its object's
// committed writers, found through the index's writers of the object
// rather than by scanning every witness position before the reader. The
// oracle (spec.WatchLookups) runs the old whole-prefix scan beside every
// lookup of checkRead and committedWriter, on streams of the
// follow-concurrent shape (tl2, 4 x 50 transactions, 128 objects) at
// retire 32, as certd runs them, and with nothing retired, where the
// witness holds the whole stream and the writer rows span several words.
func TestCheckReadLookupOracle(t *testing.T) {
	tl2 := followInputs[0]
	for _, window := range []int{0, 32} {
		lookups := spec.WatchLookups(t)
		for i := 0; i < 4; i++ {
			s, err := spec.NewSession(tl2.criteria, spec.WithRetirement(window))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range recorded(t, tl2.w, corpusSeed(i)) {
				if vs, err := s.Append(e); err != nil || !vs[0].OK {
					t.Fatalf("retire %d, stream %d: %v: verdict %+v, err %v", window, i, e, vs[0], err)
				}
			}
			if searches, _ := s.Stats(); searches != 0 {
				t.Errorf("retire %d, stream %d: %d searches; want none, so that the lookups decide every read", window, i, searches)
			}
			s.Release()
		}
		if *lookups == 0 {
			t.Fatalf("retire %d: no lookup compared", window)
		}
		t.Logf("retire %d: %d lookups compared", window, *lookups)
	}
}

// FuzzMonitorFlips is the monitor half of FuzzCheckerDifferential on its
// own budget, for the flip-equivalence oracle: the decoded history goes
// through a one-criterion monitor per monitorable criterion and a
// five-criteria session at every window the sel byte draws, all with the
// oracle installed (feedCompareOpts and sessionCompare install it) and the
// writer-lookup oracle beside it, and pinned per response prefix against
// batch Check.
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
		spec.WatchLookups(t)
		for _, c := range spec.MonitorableCriteria() {
			feedCompareOpts(t, c, h, window, c == spec.TMS2 && sel&0x80 != 0)
		}
		sessionCompare(t, h, window, 0)
	})
}
