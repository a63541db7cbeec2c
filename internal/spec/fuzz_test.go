package spec_test

import (
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

// historyFromBytes decodes a fuzz payload into a well-formed history by
// construction: bytes are consumed in pairs (transaction selector, action
// selector). A transaction with a pending operation gets its response (the
// action byte picks the outcome and read value); otherwise the action byte
// picks a new invocation. Unconsumed choices (transaction already ended,
// invocation after tryC) are skipped, so every byte string maps to some
// well-formed history — including ones with pending operations,
// commit-pending transactions, interleaved responses, aborted reads and
// value collisions across writers (small value domain).
func historyFromBytes(data []byte) *history.History {
	const (
		maxEvents = 44
		numTxns   = 5
		numObjs   = 3
	)
	objs := [numObjs]history.Var{"X", "Y", "Z"}
	type txnState struct {
		pending     bool
		pendingKind history.OpKind
		pendingObj  history.Var
		pendingArg  history.Value
		afterTry    bool
		ended       bool
	}
	var states [numTxns + 1]txnState
	var evs []history.Event
	for p := 0; p+1 < len(data) && len(evs) < maxEvents; p += 2 {
		k := history.TxnID(data[p]%numTxns) + 1
		b := data[p+1]
		t := &states[k]
		if t.ended {
			continue
		}
		if t.pending {
			// Response to the pending invocation.
			ev := history.Event{Kind: history.Res, Op: t.pendingKind, Txn: k, Obj: t.pendingObj, Arg: t.pendingArg}
			switch t.pendingKind {
			case history.OpRead:
				if b%5 == 0 {
					ev.Out = history.OutAbort
					t.ended = true
				} else {
					ev.Out = history.OutOK
					ev.Val = history.Value((b >> 2) % 4)
				}
			case history.OpWrite:
				if b%7 == 0 {
					ev.Out = history.OutAbort
					t.ended = true
				} else {
					ev.Out = history.OutOK
				}
			case history.OpTryCommit:
				if b%3 == 0 {
					ev.Out = history.OutAbort
				} else {
					ev.Out = history.OutCommit
				}
				t.ended = true
			default: // OpTryAbort
				ev.Out = history.OutAbort
				t.ended = true
			}
			t.pending = false
			evs = append(evs, ev)
			continue
		}
		if t.afterTry {
			continue // no invocations after tryC/tryA
		}
		// New invocation.
		ev := history.Event{Kind: history.Inv, Txn: k}
		switch b % 10 {
		case 0, 1, 2, 3:
			ev.Op = history.OpRead
			ev.Obj = objs[(b>>4)%numObjs]
		case 4, 5, 6, 7:
			ev.Op = history.OpWrite
			ev.Obj = objs[(b>>4)%numObjs]
			ev.Arg = history.Value((b>>6)%3 + 1)
		case 8:
			ev.Op = history.OpTryCommit
			t.afterTry = true
		default:
			ev.Op = history.OpTryAbort
			t.afterTry = true
		}
		t.pending = true
		t.pendingKind = ev.Op
		t.pendingObj = ev.Obj
		t.pendingArg = ev.Arg
		evs = append(evs, ev)
	}
	h, err := history.FromEvents(evs)
	if err != nil {
		// The state machine mirrors the well-formedness rules; this would
		// be a bug in the generator.
		panic("fuzz generator produced a malformed history: " + err.Error())
	}
	return h
}

// encodeHistory inverts historyFromBytes: it renders a history as the
// byte-pair fuzz payload, renaming objects to the decoder's fixed X/Y/Z
// alphabet in order of first use and remapping written values into the
// decoder's 1..3 domain. Histories that do not fit the decoder's shape
// (more than 5 transactions, 3 objects, 3 distinct written values, a
// read of a value nothing wrote, or over 44 events) return ok=false.
// It exists to plant real engine executions — pdur's partitioned
// certifier interleavings in particular — into the fuzz corpus.
func encodeHistory(h *history.History) (data []byte, ok bool) {
	objIdx := map[history.Var]int{}
	valMap := map[history.Value]history.Value{0: 0}
	next := history.Value(1)
	mapVal := func(v history.Value, extend bool) (history.Value, bool) {
		if m, ok := valMap[v]; ok {
			return m, true
		}
		if !extend || next > 3 {
			return 0, false
		}
		m := next
		next++
		valMap[v] = m
		return m, true
	}
	evs := h.Events()
	if len(evs) > 44 {
		return nil, false
	}
	for _, ev := range evs {
		if ev.Txn < 1 || ev.Txn > 5 {
			return nil, false
		}
		oi := 0
		if ev.Op == history.OpRead || ev.Op == history.OpWrite {
			idx, seen := objIdx[ev.Obj]
			if !seen {
				idx = len(objIdx)
				if idx >= 3 {
					return nil, false
				}
				objIdx[ev.Obj] = idx
			}
			oi = idx
		}
		// Brute-force the action byte: the decoder's arithmetic is cheap
		// enough to invert by search over all 256 candidates.
		found := false
		for c := 0; c < 256 && !found; c++ {
			b := byte(c)
			if ev.Kind == history.Inv {
				switch ev.Op {
				case history.OpRead:
					found = b%10 <= 3 && int((b>>4)%3) == oi
				case history.OpWrite:
					arg, okv := mapVal(ev.Arg, true)
					if !okv {
						return nil, false
					}
					found = b%10 >= 4 && b%10 <= 7 && int((b>>4)%3) == oi && history.Value((b>>6)%3+1) == arg
				case history.OpTryCommit:
					found = b%10 == 8
				default: // OpTryAbort
					found = b%10 == 9
				}
			} else {
				switch ev.Op {
				case history.OpRead:
					if ev.Out == history.OutAbort {
						found = b%5 == 0
					} else {
						// Only values some write introduced (or 0) decode back.
						v, okv := mapVal(ev.Val, false)
						if !okv {
							return nil, false
						}
						found = b%5 != 0 && history.Value((b>>2)%4) == v
					}
				case history.OpWrite:
					if ev.Out == history.OutAbort {
						found = b%7 == 0
					} else {
						found = b%7 != 0
					}
				case history.OpTryCommit:
					if ev.Out == history.OutCommit {
						found = b%3 != 0
					} else {
						found = b%3 == 0
					}
				default: // OpTryAbort: any byte decodes to the abort response
					found = true
				}
			}
			if found {
				data = append(data, byte(ev.Txn-1), b)
			}
		}
		if !found {
			return nil, false
		}
	}
	return data, true
}

// pdurSeedWorkload is the shape of the pdur episodes planted into the
// fuzz corpus: small enough to fit the decoder's alphabet, contended
// enough (3 objects, 2 partitions) that cross-partition validation and
// partition-lock ordering show up in the recorded interleavings.
func pdurSeedWorkload(seed int64) harness.Workload {
	return harness.Workload{
		Engine: "pdur", Objects: 3, Goroutines: 2,
		TxnsPerGoroutine: 1, OpsPerTxn: 3, ReadFraction: 0.5, Seed: seed,
	}
}

// pdurSeeds are the recorded pdur episodes that fit the fuzz alphabet,
// each with a sel byte drawn from its seed.
func pdurSeeds() []fuzzSeed {
	var seeds []fuzzSeed
	for seed := int64(1); seed <= 12; seed++ {
		if h, _, err := harness.RunInterleaved(pdurSeedWorkload(seed)); err == nil {
			if data, ok := encodeHistory(h); ok {
				seeds = append(seeds, fuzzSeed{data, byte(seed % 5)})
			}
		}
	}
	return seeds
}

// TestPdurSeedEncoderRoundTrips pins the corpus encoder: a recorded
// pdur episode decodes back with the same event skeleton (kind, op,
// transaction, outcome per event), and enough of the seed range
// actually fits the decoder's alphabet to be worth planting.
func TestPdurSeedEncoderRoundTrips(t *testing.T) {
	encoded := 0
	for seed := int64(1); seed <= 12; seed++ {
		h, _, err := harness.RunInterleaved(pdurSeedWorkload(seed))
		if err != nil {
			t.Fatal(err)
		}
		data, ok := encodeHistory(h)
		if !ok {
			continue
		}
		encoded++
		got := historyFromBytes(data)
		if got.Len() != h.Len() {
			t.Fatalf("seed %d: decoded %d events, want %d\noriginal:\n%s\ndecoded:\n%s",
				seed, got.Len(), h.Len(), h, got)
		}
		gevs, wevs := got.Events(), h.Events()
		for i := range wevs {
			g, w := gevs[i], wevs[i]
			if g.Kind != w.Kind || g.Op != w.Op || g.Txn != w.Txn || g.Out != w.Out {
				t.Fatalf("seed %d event %d: decoded %+v, want skeleton of %+v", seed, i, g, w)
			}
		}
	}
	if encoded < 4 {
		t.Fatalf("only %d/12 pdur seeds fit the fuzz alphabet; corpus planting is ineffective", encoded)
	}
}

// fuzzSeed is one seed of FuzzCheckerDifferential: a fuzz payload and
// its sel byte.
type fuzzSeed struct {
	data []byte
	sel  byte
}

// fuzzCorpus is FuzzCheckerDifferential's seed corpus.
func fuzzCorpus() []fuzzSeed {
	c := []fuzzSeed{
		{[]byte{}, 0},
		{[]byte{0, 44, 0, 8, 1, 0, 1, 4, 0, 88, 1, 9}, 0},
		{[]byte{0, 4, 0, 1, 1, 0, 1, 6, 0, 8, 0, 1, 1, 8, 1, 1}, 1},
		{[]byte{2, 0, 2, 4, 0, 4, 0, 1, 1, 0, 1, 4, 2, 8, 2, 1, 0, 8, 0, 2, 1, 8, 1, 2}, 2},
		{[]byte{0, 4, 0, 1, 0, 8, 1, 0, 1, 4, 0, 1, 2, 0, 2, 4, 1, 8, 2, 8, 0, 1, 1, 1, 2, 1}, 0x21},
	}
	// Conflict-order litmus corpus: Figure 6 (du-opaque but not TMS2) and
	// its mirror Figure 5 (du-opaque but not RCO), planted with sel bytes
	// that draw the criterion each figure separates — and, for Figure 6's
	// shape, the TMS2 aborted-reader variant (the pinned
	// harness/testdata/tms2_aborted_reader.hist golden renumbered into the
	// fuzz alphabet) under both exemption settings.
	if data, ok := encodeHistory(litmus.Figure6()); ok {
		c = append(c, fuzzSeed{data, 1}, fuzzSeed{data, 2}) // TMS2; RCO accepts the same history
	}
	if data, ok := encodeHistory(litmus.Figure5()); ok {
		c = append(c, fuzzSeed{data, 2}, fuzzSeed{data, 1}) // RCO; TMS2 accepts the same history
	}
	abortedReader := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 1).
		Write(3, "X", 2).Commit(3).
		CommitAbort(2).
		History()
	if data, ok := encodeHistory(abortedReader); ok {
		// Strict TMS2 rejects; the exemption flips it to accept.
		c = append(c, fuzzSeed{data, 1}, fuzzSeed{data, 0x81})
	}
	// Real pdur executions, recorded under the deterministic interleaved
	// scheduler and re-encoded into the fuzz alphabet: the corpus starts
	// from interleavings a partitioned certifier actually produces
	// (cross-partition reads, disjoint commits, partition-ordered locks)
	// rather than only synthetic shapes.
	return append(c, pdurSeeds()...)
}

// FuzzCheckerDifferential asserts verdict equality — OK, rejection reason,
// undecided flag and explored node count — between the optimized engine
// and the frozen reference engine, for every criterion (Opacity under
// diffCompare's one-directional rule), on histories decoded from the fuzz
// payload, and the same edge lists from the dense and the frozen
// conflict-order edge builders. CheckAll must give every criterion
// Check's verdict (checkAllCompare). It also — drawing a monitorable
// criterion, a retirement window and the TMS2 exemption from the sel
// byte — runs the online monitor over the same history, pinned per
// response prefix against the batch checker, and then a five-criteria
// Session with the same window (the fuzzed counterpart of
// TestMonitorDifferentialAllCriteria).
func FuzzCheckerDifferential(f *testing.F) {
	for _, c := range fuzzCorpus() {
		f.Add(c.data, c.sel)
	}
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		h := historyFromBytes(data)
		if h.Len() == 0 {
			t.Skip()
		}
		const limit = 30_000
		for _, c := range spec.AllCriteria() {
			diffCompare(t, h, c, limit)
		}
		edgesMatchReference(t, h)
		checkAllCompare(t, h, spec.WithNodeLimit(limit))
		// Online monitor differential: sel draws a monitorable criterion,
		// a retirement window and (for TMS2) the aborted-reader exemption;
		// feedCompareOpts pins monitor == batch at every response prefix
		// while unlatched, and the incremental edge set against the batch
		// edge builders at every prefix when no window retires state.
		mcs := spec.MonitorableCriteria()
		mc := mcs[int(sel&0x0f)%len(mcs)]
		window := []int{0, 0, 4, 16}[int(sel>>4)%4]
		exempt := mc == spec.TMS2 && sel&0x80 != 0
		feedCompareOpts(t, mc, h, window, exempt)
		// The same history through one five-criteria Session over its
		// shared stream, against five one-criterion monitors and batch.
		sessionCompare(t, h, window, 0)
	})
}
