package spec_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"duopacity/internal/gen"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// seqTxnEvents appends the four events of one sequential read-write
// transaction (read the object's current value, write its own, commit)
// to evs and returns the slice. Streams built from these are du-opaque
// by construction: every transaction is a committed serial step.
func seqTxnEvents(evs []history.Event, k history.TxnID, obj history.Var, read, write history.Value) []history.Event {
	return append(evs,
		history.Event{Kind: history.Inv, Op: history.OpRead, Txn: k, Obj: obj},
		history.Event{Kind: history.Res, Op: history.OpRead, Txn: k, Obj: obj, Val: read, Out: history.OutOK},
		history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: k, Obj: obj, Arg: write},
		history.Event{Kind: history.Res, Op: history.OpWrite, Txn: k, Obj: obj, Arg: write, Out: history.OutOK},
		history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: k},
		history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: k, Out: history.OutCommit},
	)
}

// seqStream builds n sequential read-write transactions round-robin over
// objs objects.
func seqStream(n, objs int) []history.Event {
	var evs []history.Event
	last := make([]history.Value, objs)
	for k := 1; k <= n; k++ {
		oi := k % objs
		obj := history.Var(fmt.Sprintf("X%d", oi))
		evs = seqTxnEvents(evs, history.TxnID(k), obj, last[oi], history.Value(k))
		last[oi] = history.Value(k)
	}
	return evs
}

// TestMonitorManyTxnsStaysDecided inverts the old 64-transaction wall:
// the monitor used to return a blanket undecided verdict ("limited to
// 64") past 64 transactions. With multi-word bitsets every response of a
// 130-transaction stream must be decided OK, without retirement.
func TestMonitorManyTxnsStaysDecided(t *testing.T) {
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range seqStream(130, 3) {
		v, err := m.Append(e)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !v.OK || v.Undecided {
			t.Fatalf("event %d (%v): verdict %+v, want decided OK", i, e, v)
		}
	}
	if n := m.LiveTxns(); n != 130 {
		t.Fatalf("LiveTxns = %d, want 130 (no retirement configured)", n)
	}
	if m.Retired() != 0 {
		t.Fatalf("Retired = %d without WithRetirement", m.Retired())
	}
}

// TestMonitorRetirementBoundedLive pins the memory bound: with
// retirement enabled, a long sequential stream keeps the live index at
// O(window) transactions while every verdict stays decided OK.
func TestMonitorRetirementBoundedLive(t *testing.T) {
	const window = 8
	m, err := spec.NewMonitor(spec.DUOpacity, spec.WithRetirement(window))
	if err != nil {
		t.Fatal(err)
	}
	evs := seqStream(2000, 4)
	for i, e := range evs {
		v, err := m.Append(e)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !v.OK || v.Undecided {
			t.Fatalf("event %d: verdict %+v, want decided OK", i, v)
		}
		if live := m.LiveTxns(); live > 2*window+1 {
			t.Fatalf("event %d: %d live transactions, want <= %d", i, live, 2*window+1)
		}
	}
	if m.Retired() < 2000-2*window-1 {
		t.Fatalf("Retired = %d, want nearly all of 2000", m.Retired())
	}
	if m.Len() != len(evs) {
		t.Fatalf("Len = %d, want %d observed events", m.Len(), len(evs))
	}
	searches, fastHits := m.Stats()
	if searches > 2 {
		t.Fatalf("retirement must not force searches: %d searches, %d fast hits", searches, fastHits)
	}
}

// feedBoth drives a retiring and a full monitor over the same events and
// requires identical verdicts (OK, Undecided, latching point) at every
// step. It returns the two monitors for post-hoc assertions.
func feedBoth(t *testing.T, c spec.Criterion, window int, evs []history.Event) (retiring, full *spec.Monitor) {
	t.Helper()
	retiring, err := spec.NewMonitor(c, spec.WithRetirement(window))
	if err != nil {
		t.Fatal(err)
	}
	full, err = spec.NewMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	spec.WatchFlips(t)
	for i, e := range evs {
		vr, errR := retiring.Append(e)
		vf, errF := full.Append(e)
		if (errR == nil) != (errF == nil) {
			t.Fatalf("event %d (%v): retiring err %v, full err %v", i, e, errR, errF)
		}
		if errR != nil {
			continue
		}
		if vr.OK != vf.OK || vr.Undecided != vf.Undecided {
			t.Fatalf("event %d (%v): retiring %+v, full %+v", i, e, vr, vf)
		}
	}
	return retiring, full
}

// chunkedStream concatenates chunks generated du-opaque concurrent
// histories (transaction ids remapped to stay globally unique), each
// followed by one serial sync transaction that commits a write of
// InitValue to every object. The sync resets the abstract state so the
// next chunk's reads (generated against a fresh initial state) stay
// legal, and it gives retirement what pipelined traffic denies it:
// a real-time barrier with a forced final committed state.
func chunkedStream(t *testing.T, chunks, txnsPerChunk int, seed int64) []history.Event {
	t.Helper()
	var evs []history.Event
	objs := []history.Var{"XA", "XB", "XC", "XD"}
	for c := 0; c < chunks; c++ {
		// Every transaction t-completes (commits or aborts): a transaction
		// that never finishes legitimately pins the retirement window, so
		// shapes that stay incomplete forever would make "nothing retired"
		// the correct outcome.
		h := gen.DUOpaque(gen.Config{
			Txns: txnsPerChunk, Objects: len(objs), OpsPerTxn: 3, ReadFraction: 0.4,
			PAbort: 0.15, Relax: 4, Seed: seed*100 + int64(c),
		})
		off := history.TxnID(1 + c*1000)
		for _, e := range h.Events() {
			e.Txn += off
			evs = append(evs, e)
		}
		sync := off + history.TxnID(txnsPerChunk) + 1
		for _, o := range objs {
			evs = append(evs,
				history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: sync, Obj: o, Arg: history.InitValue},
				history.Event{Kind: history.Res, Op: history.OpWrite, Txn: sync, Obj: o, Arg: history.InitValue, Out: history.OutOK},
			)
		}
		evs = append(evs,
			history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: sync},
			history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: sync, Out: history.OutCommit},
		)
	}
	return evs
}

// TestMonitorRetirementDifferential pins the retiring monitor against a
// full monitor over generated concurrent du-opaque streams and over
// streams with planted violations: retirement must never change a
// verdict, only the memory footprint.
func TestMonitorRetirementDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for seed := int64(0); seed < 4; seed++ {
		evs := chunkedStream(t, 8, 12, 900+seed)
		retiring, _ := feedBoth(t, spec.DUOpacity, 8, evs)
		if retiring.Retired() == 0 {
			t.Errorf("seed %d: nothing retired over %d transactions", seed, 8*13)
		}
		if live := retiring.LiveTxns(); live >= 8*13 {
			t.Errorf("seed %d: live index not bounded: %d", seed, live)
		}
		// Heavily pipelined traffic without quiescent points: overlapping
		// committed writers keep the final state ambiguous, so little or
		// nothing retires — but the verdicts must still match exactly.
		h := gen.DUOpaque(gen.Config{
			Txns: 150, Objects: 4, OpsPerTxn: 3, ReadFraction: 0.4,
			PAbort: 0.15, Relax: 4, Seed: 900 + seed,
		})
		feedBoth(t, spec.DUOpacity, 8, h.Events())
		// Planted violation: both monitors must refute at the same event.
		if mut, ok := gen.MutateSourcelessRead(h, rng); ok {
			feedBoth(t, spec.DUOpacity, 8, mut.Events())
		}
	}
}

// TestMonitorRetirementViolationAfterRetire plants the violation deep in
// the stream, long after the prefix that makes it stale has been
// retired: a read of a value overwritten thousands of events ago must
// still be refuted, via the checkpoint's forced final state.
func TestMonitorRetirementViolationAfterRetire(t *testing.T) {
	evs := seqStream(500, 3)
	// T_501 reads X0's long-retired value written by T_3 (object X0 was
	// last written by T_498).
	evs = append(evs,
		history.Event{Kind: history.Inv, Op: history.OpRead, Txn: 501, Obj: "X0"},
		history.Event{Kind: history.Res, Op: history.OpRead, Txn: 501, Obj: "X0", Val: 3, Out: history.OutOK},
	)
	retiring, _ := feedBoth(t, spec.DUOpacity, 8, evs)
	if v := retiring.Verdict(); v.OK || v.Undecided {
		t.Fatalf("stale read survived retirement: %+v", v)
	}
	if retiring.Retired() == 0 {
		t.Fatal("nothing retired before the violation")
	}
}

// TestMonitorRetirementAmbiguityBlocks exercises the forced-state
// condition. Two overlapping committed writers of X leave X's final
// value ambiguous — a later read may legally observe either order — so
// the pair must stay live (retiring them behind a checkpoint would pick
// one value and wrongly refute a read of the other). Once a later
// writer that real-time follows both commits, the ambiguity is dead and
// retirement resumes.
func TestMonitorRetirementAmbiguityBlocks(t *testing.T) {
	var evs []history.Event
	// T1 and T2 overlap: both write X, neither real-time precedes the other.
	evs = append(evs,
		history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: 1, Obj: "X", Arg: 1},
		history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: 2, Obj: "X", Arg: 2},
		history.Event{Kind: history.Res, Op: history.OpWrite, Txn: 1, Obj: "X", Arg: 1, Out: history.OutOK},
		history.Event{Kind: history.Res, Op: history.OpWrite, Txn: 2, Obj: "X", Arg: 2, Out: history.OutOK},
		history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: 1},
		history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: 1, Out: history.OutCommit},
		history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: 2},
		history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: 2, Out: history.OutCommit},
	)
	// Sequential traffic on another object: triggers retirement attempts
	// but must not retire the ambiguous pair.
	last := history.Value(0)
	for k := history.TxnID(3); k <= 12; k++ {
		evs = seqTxnEvents(evs, k, "Y", last, history.Value(k)*10)
		last = history.Value(k) * 10
	}
	// A read of T1's value: legal only with T2 <S T1, which must still be
	// available — the retiring monitor must accept exactly like the full
	// one.
	evs = append(evs,
		history.Event{Kind: history.Inv, Op: history.OpRead, Txn: 13, Obj: "X"},
		history.Event{Kind: history.Res, Op: history.OpRead, Txn: 13, Obj: "X", Val: 1, Out: history.OutOK},
		history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: 13},
		history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: 13, Out: history.OutCommit},
	)
	// A dominating writer of X commits: the pair's values are now dead,
	// the prefix's final state is forced, retirement resumes.
	evs = seqTxnEvents(evs, 14, "X", 1, 99)
	for k := history.TxnID(15); k <= 24; k++ {
		evs = seqTxnEvents(evs, k, "Y", last, history.Value(k)*10)
		last = history.Value(k) * 10
	}
	retiring, _ := feedBoth(t, spec.DUOpacity, 2, evs)
	if v := retiring.Verdict(); !v.OK {
		t.Fatalf("final verdict %+v, want OK", v)
	}
	if retiring.Retired() == 0 {
		t.Fatal("retirement never resumed after the ambiguity resolved")
	}
	// And the converse: after the dominating writer, a read of the
	// retired ambiguous values must be refuted by both monitors alike.
	evs = append(evs,
		history.Event{Kind: history.Inv, Op: history.OpRead, Txn: 25, Obj: "X"},
		history.Event{Kind: history.Res, Op: history.OpRead, Txn: 25, Obj: "X", Val: 2, Out: history.OutOK},
	)
	retiring, _ = feedBoth(t, spec.DUOpacity, 2, evs)
	if v := retiring.Verdict(); v.OK {
		t.Fatal("read of a dead value accepted after retirement")
	}
}

// TestMonitorRetirementRejectsCheckpointID: the reserved checkpoint
// transaction id must be refused from the outside when retirement is on.
func TestMonitorRetirementRejectsCheckpointID(t *testing.T) {
	m, err := spec.NewMonitor(spec.DUOpacity, spec.WithRetirement(4))
	if err != nil {
		t.Fatal(err)
	}
	e := history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: -1, Obj: "X", Arg: 1}
	if _, err := m.Append(e); err == nil {
		t.Fatal("reserved checkpoint id accepted")
	}
	if m.Len() != 0 {
		t.Fatalf("rejected event moved the monitor: Len = %d", m.Len())
	}
}

// TestMonitorCleanResponseAllocs gates the unrendered witness and the
// session-owned verdict slice: clean (non-commit) responses on the fast
// path must be allocation-free once the buffers are warm, for a
// one-criterion monitor and for a session deciding all five monitorable
// criteria over its one stream (amortized slice growth is the only
// remaining source). It also pins what constructing a one-criterion
// monitor allocates — the explorer builds thousands per second — at the
// counts measured before Monitor became a one-criterion Session. In
// between, the same gate for a warm commit flip and for a retirement.
func TestMonitorCleanResponseAllocs(t *testing.T) {
	// A collection empties the sync.Pools the checker draws its search
	// state from, and the next flip refills them; with collection off
	// while allocations are counted, the gate measures the warm path and
	// not the collector's timing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.NewSession(spec.MonitorableCriteria())
	if err != nil {
		t.Fatal(err)
	}
	// Each subject reports whether every criterion accepts.
	for name, appendEvent := range map[string]func(history.Event) (bool, error){
		"monitor": func(e history.Event) (bool, error) {
			v, err := m.Append(e)
			return v.OK, err
		},
		"session": func(e history.Event) (bool, error) {
			vs, err := s.Append(e)
			ok := true
			for _, v := range vs {
				ok = ok && v.OK
			}
			return ok, err
		},
	} {
		// One live transaction's writes: the first 64 grow every buffer.
		w := func(v history.Value) {
			inv := history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: 1, Obj: "X", Arg: v}
			res := history.Event{Kind: history.Res, Op: history.OpWrite, Txn: 1, Obj: "X", Arg: v, Out: history.OutOK}
			if _, err := appendEvent(inv); err != nil {
				t.Fatal(err)
			}
			if ok, err := appendEvent(res); err != nil || !ok {
				t.Fatalf("%s: clean write refused (err %v)", name, err)
			}
		}
		for i := 0; i < 64; i++ {
			w(history.Value(i))
		}
		v := history.Value(64)
		avg := testing.AllocsPerRun(200, func() {
			w(v)
			v++
		})
		if avg > 0.5 {
			t.Errorf("%s: clean response allocates %.2f objects/op on average, want ~0", name, avg)
		}
	}
	// A warm commit flip — every commit response of a stream of writers is
	// one, the witness aborts live transactions — allocates nothing either,
	// and a retirement nothing per decider: its only allocation is the one
	// stream rebuild, so five criteria retire for what one does.
	var retireAllocs [2]uint64
	for k, criteria := range [][]spec.Criterion{{spec.DUOpacity}, spec.MonitorableCriteria()} {
		s, err := spec.NewSession(criteria, spec.WithRetirement(8))
		if err != nil {
			t.Fatal(err)
		}
		oracle := spec.WatchFlips(t)
		var ms runtime.MemStats
		mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
		var flipAllocs, flips uint64
		for txn := history.TxnID(1); txn <= 264; txn++ {
			evs := seqTxnEvents(nil, txn, "X", history.Value(txn-1), history.Value(txn))
			for i, e := range evs {
				retired, m0 := s.Retired(), mallocs()
				if vs, err := s.Append(e); err != nil || !vs[0].OK {
					t.Fatalf("%v refused (err %v)", e, err)
				}
				switch n := mallocs() - m0; {
				case s.Retired() != retired:
					retireAllocs[k] = n // the last, warmest one counts
				case i == len(evs)-1 && txn > 64:
					flipAllocs, flips = flipAllocs+n, flips+1
				}
			}
		}
		if oracle.Flips != 264*len(criteria) || s.Retired() == 0 {
			t.Fatalf("%d criteria: %d flips, %d retired; the stream measured something else", len(criteria), oracle.Flips, s.Retired())
		}
		if avg := float64(flipAllocs) / float64(flips); avg > 0.5 {
			t.Errorf("%d criteria: a warm commit flip allocates %.2f objects on average, want ~0", len(criteria), avg)
		}
	}
	t.Logf("retirement allocations: %d (du), %d (five criteria)", retireAllocs[0], retireAllocs[1])
	if retireAllocs[1] > retireAllocs[0] {
		t.Errorf("a retirement allocates %d objects under five criteria, %d under one; want the stream rebuild alone", retireAllocs[1], retireAllocs[0])
	}
	for _, c := range spec.MonitorableCriteria() {
		want := 9.0
		if c == spec.TMS2 || c == spec.RCO {
			want = 10 // the edge tracker
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := spec.NewMonitor(c, spec.WithNodeLimit(1000), spec.WithRetirement(8)); err != nil {
				t.Fatal(err)
			}
		})
		if got > want {
			t.Errorf("NewMonitor(%v) allocates %.0f objects, want at most %.0f", c, got, want)
		}
	}
}
