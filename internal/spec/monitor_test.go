package spec_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"duopacity/internal/gen"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

func feed(t *testing.T, m *spec.Monitor, h *history.History) spec.Verdict {
	t.Helper()
	var v spec.Verdict
	for _, e := range h.Events() {
		var err error
		v, err = m.Append(e)
		if err != nil {
			t.Fatalf("append %v: %v", e, err)
		}
	}
	return v
}

func TestMonitorMatchesBatchOnLitmus(t *testing.T) {
	for _, c := range litmus.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := spec.NewMonitor(spec.DUOpacity)
			if err != nil {
				t.Fatal(err)
			}
			v := feed(t, m, c.H)
			want := spec.CheckDUOpacity(c.H).OK
			if v.OK != want {
				t.Fatalf("monitor = %v, batch = %v (reason: %s)", v.OK, want, v.Reason)
			}
		})
	}
}

func TestMonitorLatchesViolation(t *testing.T) {
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	// Read of a never-written value: violated at the read's response.
	h := history.NewBuilder().
		Read(1, "X", 7).
		Commit(1).
		History()
	evs := h.Events()
	var v spec.Verdict
	for i, e := range evs {
		v, err = m.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 1 && v.OK {
			t.Fatalf("event %d: violation not detected", i)
		}
	}
	if v.OK {
		t.Fatal("final verdict should be violated")
	}
	// The refutation reason survives later events (latched).
	if v.Reason == "" {
		t.Fatal("missing reason")
	}
}

func TestMonitorDetectsAtTheRightEvent(t *testing.T) {
	// Figure 3: the violation becomes definitive exactly at read_2's
	// response (the first prefix that is not final-state opaque), not
	// before.
	m, err := spec.NewMonitor(spec.FinalStateOpacity)
	if err != nil {
		t.Fatal(err)
	}
	h := litmus.Figure3()
	evs := h.Events()
	for i, e := range evs {
		v, err := m.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		if i < litmus.Figure3PrefixLen-1 && !v.OK {
			t.Fatalf("event %d: premature violation", i)
		}
		if i == litmus.Figure3PrefixLen-1 && v.OK {
			t.Fatalf("event %d: violation missed", i)
		}
	}
	// Note: monitored final-state opacity is prefix-latched, i.e. it
	// decides *opacity*; the full Figure 3 history itself is final-state
	// opaque again, which is exactly the non-prefix-closure anomaly.
	if spec.CheckFinalStateOpacity(h).OK != true {
		t.Fatal("figure 3 should be final-state opaque as a whole")
	}
	if m.Verdict().OK {
		t.Fatal("monitor must stay latched")
	}
}

func TestMonitorFastPathHits(t *testing.T) {
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	h := gen.DUOpaque(gen.Config{Txns: 8, Objects: 3, OpsPerTxn: 3, Relax: 4, Seed: 5})
	feed(t, m, h)
	if !m.Verdict().OK {
		t.Fatalf("generated du-opaque history rejected: %s", m.Verdict().Reason)
	}
	searches, hits := m.Stats()
	if hits == 0 {
		t.Error("witness reuse never succeeded on an extending du-opaque history")
	}
	if searches == 0 {
		t.Error("expected at least one full search (the first response)")
	}
	t.Logf("searches=%d fastHits=%d", searches, hits)
}

func TestMonitorRejectsMalformedEvent(t *testing.T) {
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(history.Event{Kind: history.Res, Op: history.OpRead, Txn: 1, Obj: "X", Out: history.OutOK}); err == nil {
		t.Fatal("orphan response accepted")
	}
	// The monitor state is unchanged and usable.
	if m.History().Len() != 0 {
		t.Fatal("failed append mutated the monitor")
	}
	if _, err := m.Append(history.Event{Kind: history.Inv, Op: history.OpRead, Txn: 1, Obj: "X"}); err != nil {
		t.Fatalf("valid append after failure: %v", err)
	}
}

// TestMonitorRejectionMidStreamIsSideEffectFree is the regression test
// for the pre-stream Monitor.Append bug where the rejected event was
// written into the event slice's spare capacity before validation. With
// the stream core, a rejected append must leave the monitor byte-for-byte
// where it was: same history, same verdict, and subsequent appends behave
// as if the bad event was never offered.
func TestMonitorRejectionMidStreamIsSideEffectFree(t *testing.T) {
	h := gen.DUOpaque(gen.Config{Txns: 6, Objects: 3, OpsPerTxn: 3, Relax: 4, Seed: 11})
	evs := h.Events()
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	bad := []history.Event{
		{Kind: history.Res, Op: history.OpRead, Txn: 99, Obj: "X", Out: history.OutOK, Val: 1},
		{Kind: history.Inv, Op: history.OpWrite, Txn: history.InitTxn, Obj: "X", Arg: 1},
	}
	for i, e := range evs {
		// Offer malformed events before every real one.
		before := m.Verdict()
		for _, b := range bad {
			if _, err := m.Append(b); err == nil {
				t.Fatalf("event %d: malformed event %v accepted", i, b)
			}
		}
		if m.History().Len() != i {
			t.Fatalf("event %d: rejected appends changed the history length to %d", i, m.History().Len())
		}
		after := m.Verdict()
		if before.OK != after.OK || before.Reason != after.Reason {
			t.Fatalf("event %d: rejected appends changed the verdict", i)
		}
		if _, err := m.Append(e); err != nil {
			t.Fatalf("event %d (%v): %v", i, e, err)
		}
	}
	// The final verdict matches the batch checker on the clean history.
	if got, want := m.Verdict().OK, spec.CheckDUOpacity(h).OK; got != want {
		t.Fatalf("final verdict %v, batch %v", got, want)
	}
	if !m.History().Equivalent(h) {
		t.Fatal("monitored history diverged from the input")
	}
}

// feedCompare appends h's events one at a time, comparing the monitor's
// verdict against the batch checker at every response prefix. It pins the
// incremental witness maintenance (commit flips, per-read checks,
// rebuild-only paths) against the exhaustive search.
func feedCompare(t *testing.T, c spec.Criterion, h *history.History) {
	t.Helper()
	m, err := spec.NewMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	spec.WatchFlips(t)
	spec.WatchEdgeScans(t)
	evs := h.Events()
	latched := false
	for i, e := range evs {
		v, err := m.Append(e)
		if err != nil {
			t.Fatalf("append %d (%v): %v", i, e, err)
		}
		if e.Kind != history.Res {
			continue
		}
		want := spec.Check(h.Prefix(i+1), c)
		// The monitor latches (prefix-closed semantics); past the first
		// violation the batch verdict of a non-prefix-closed criterion
		// may recover, so only compare while unlatched.
		if !latched && v.OK != want.OK {
			t.Fatalf("prefix %d: monitor=%v batch=%v (monitor reason: %s; batch reason: %s)",
				i+1, v.OK, want.OK, v.Reason, want.Reason)
		}
		if !v.OK {
			latched = true
		}
		if v.OK && c == spec.DUOpacity {
			// A claimed witness must independently validate.
			if err := spec.VerifySerialization(h.Prefix(i+1), v.Witness()); err != nil {
				t.Fatalf("prefix %d: monitor witness invalid: %v", i+1, err)
			}
		}
	}
}

// sortedEdges canonicalizes an edge list for set comparison.
func sortedEdges(edges [][2]history.TxnID) [][2]history.TxnID {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// feedCompareOpts is the windowed, option-aware feedCompare: it feeds h
// event by event through a monitor with the given retirement window
// (0 disables) and — for TMS2 — the aborted-reader exemption, pinning the
// monitor verdict against the batch checker at every response prefix
// while unlatched. With window 0 it additionally pins the monitor's
// incrementally maintained conflict-order edge set, as a set, against the
// one the same tracker builds over each prefix for the batch checker
// (build: the scans replayed over the whole prefix), invocation prefixes
// included (with retirement the live history diverges from the raw
// prefix, so the edge oracle no longer applies event-for-event).
func feedCompareOpts(t *testing.T, c spec.Criterion, h *history.History, window int, exempt bool) {
	t.Helper()
	var batchOpts []spec.Option
	if exempt {
		batchOpts = append(batchOpts, spec.WithTMS2AbortedReaderExemption())
	}
	monOpts := append([]spec.Option(nil), batchOpts...)
	if window > 0 {
		monOpts = append(monOpts, spec.WithRetirement(window))
	}
	m, err := spec.NewMonitor(c, monOpts...)
	if err != nil {
		t.Fatal(err)
	}
	spec.WatchFlips(t)
	spec.WatchEdgeScans(t)
	evs := h.Events()
	latched := false
	for i, e := range evs {
		v, err := m.Append(e)
		if err != nil {
			t.Fatalf("append %d (%v): %v", i, e, err)
		}
		if !latched && window == 0 && (c == spec.TMS2 || c == spec.RCO) {
			got := sortedEdges(spec.MonitorEdges(m))
			want := sortedEdges(spec.BatchConflictEdges(h.Prefix(i+1), c, exempt))
			if len(got) != len(want) {
				t.Fatalf("prefix %d: monitor has %d edges %v, batch %d edges %v", i+1, len(got), got, len(want), want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("prefix %d: edge sets diverge: monitor %v, batch %v", i+1, got, want)
				}
			}
		}
		if e.Kind != history.Res {
			continue
		}
		want := spec.Check(h.Prefix(i+1), c, batchOpts...)
		if !latched && v.OK != want.OK {
			t.Fatalf("prefix %d (window %d, exempt %v): monitor=%v batch=%v (monitor reason: %s; batch reason: %s)",
				i+1, window, exempt, v.OK, want.OK, v.Reason, want.Reason)
		}
		if !v.OK {
			latched = true
		}
		if v.OK && c == spec.DUOpacity && window == 0 {
			// With retirement the witness serializes the checkpointed live
			// history, not the raw prefix; the retirement differential
			// tests pin that path.
			if err := spec.VerifySerialization(h.Prefix(i+1), v.Witness()); err != nil {
				t.Fatalf("prefix %d: monitor witness invalid: %v", i+1, err)
			}
		}
	}
}

// sessionCompare is the multi-criteria subject of the differential suite:
// one Session deciding all five monitorable criteria over its one shared
// stream is fed h event by event and must agree with the batch checker at
// every response prefix while the criterion is unlatched and decided —
// across criteria that latch while the others carry on — and, without a
// node limit, with five independent one-criterion monitors at every
// event (OK and Undecided). Under a node limit the independent monitors
// are no reference for *which* prefixes come back undecided: a session
// pauses retirement while a live decider is undecided, so its searches
// may see a larger live window than a monitor that kept retiring; decided
// verdicts are exact either way, which the batch comparison pins. The
// pause itself is asserted — no transaction retires across an append at
// which a live decider (not latched, not opacity-after-a-skipped-prefix)
// is undecided — and every du-opacity witness must validate against the
// session's live (checkpointed) history. It reports the number of
// responses at which retirement was paused and the transactions retired
// after the last of them.
func sessionCompare(t *testing.T, h *history.History, window, nodeLimit int) (pauses, resumed int) {
	t.Helper()
	criteria := spec.MonitorableCriteria()
	var opts []spec.Option
	if window > 0 {
		opts = append(opts, spec.WithRetirement(window))
	}
	if nodeLimit > 0 {
		opts = append(opts, spec.WithNodeLimit(nodeLimit))
	}
	s, err := spec.NewSession(criteria, opts...)
	if err != nil {
		t.Fatal(err)
	}
	spec.WatchFlips(t)
	spec.WatchEdgeScans(t)
	var monitors []*spec.Monitor
	for _, c := range criteria {
		if nodeLimit > 0 {
			break
		}
		m, err := spec.NewMonitor(c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		monitors = append(monitors, m)
	}
	latched := make([]bool, len(criteria))
	retiredAtPause := 0
	for i, e := range h.Events() {
		before := s.Retired()
		vs, err := s.Append(e)
		if err != nil {
			t.Fatalf("append %d (%v): %v", i, e, err)
		}
		for k, m := range monitors {
			mv, err := m.Append(e)
			if err != nil {
				t.Fatalf("%v monitor: append %d (%v): %v", criteria[k], i, e, err)
			}
			if vs[k].OK != mv.OK || vs[k].Undecided != mv.Undecided {
				t.Fatalf("event %d (%v), window %d: session %v, one-criterion monitor %v", i, e, window, vs[k], mv)
			}
		}
		if e.Kind != history.Res {
			continue
		}
		paused := false
		for k, c := range criteria {
			v := vs[k]
			if v.Undecided {
				paused = paused || c != spec.Opacity
				continue
			}
			if !latched[k] {
				if want := spec.Check(h.Prefix(i+1), c); v.OK != want.OK {
					t.Fatalf("prefix %d, window %d, node limit %d: session %v, batch %v", i+1, window, nodeLimit, v, want)
				}
			}
			latched[k] = latched[k] || !v.OK
			if v.OK && c == spec.DUOpacity {
				if err := spec.VerifySerialization(spec.SessionHistory(s), v.Witness()); err != nil {
					t.Fatalf("prefix %d, window %d: session witness invalid: %v", i+1, window, err)
				}
			}
		}
		if paused {
			pauses++
			retiredAtPause = s.Retired()
			if retiredAtPause != before {
				t.Fatalf("prefix %d, window %d, node limit %d: retired %d -> %d while a live decider is undecided",
					i+1, window, nodeLimit, before, retiredAtPause)
			}
		}
	}
	return pauses, s.Retired() - retiredAtPause
}

// corpusEntry is one named stream of the differential corpus.
type corpusEntry struct {
	name string
	h    *history.History
}

// differentialCorpus is the stream set of the per-prefix differential
// suites: the golden litmus histories, generated du-opaque histories and
// the three mutators' planted violations.
func differentialCorpus() []corpusEntry {
	var histories []corpusEntry
	for _, lc := range litmus.Cases() {
		histories = append(histories, corpusEntry{lc.Name, lc.H})
	}
	rng := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 6; seed++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 8, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5,
			PAbort: 0.2, PNoTryC: 0.15, Relax: 5, Seed: 300 + seed,
		})
		histories = append(histories, corpusEntry{fmt.Sprintf("gen-%d", seed), h})
		hu := gen.DUOpaque(gen.Config{
			Txns: 8, Objects: 3, OpsPerTxn: 3, UniqueWrites: true,
			PAbort: 0.15, Relax: 5, Seed: 400 + seed,
		})
		if mh, ok := gen.MutateFutureRead(hu, rng); ok {
			histories = append(histories, corpusEntry{fmt.Sprintf("future-read-%d", seed), mh})
		}
		if mh, ok := gen.MutateSourcelessRead(hu, rng); ok {
			histories = append(histories, corpusEntry{fmt.Sprintf("sourceless-%d", seed), mh})
		}
		if mh, ok := gen.MutateAbortWriter(hu, rng); ok {
			histories = append(histories, corpusEntry{fmt.Sprintf("abort-writer-%d", seed), mh})
		}
	}
	return histories
}

// TestMonitorDifferentialAllCriteria is the per-prefix differential
// suite for the whole monitorable lattice: golden litmus streams and
// randomized generator/mutator streams are fed event by event to a
// monitor for each of the five monitorable criteria, and the monitor's
// verdict must equal the batch Check verdict at every response prefix —
// with retirement off and with windows 4 and 16, and for TMS2 with the
// aborted-reader exemption both off and on. For TMS2/RCO the unretired
// runs additionally pin the incremental edge state itself against the
// batch edge builders at every prefix. The same streams then go through
// one five-criteria Session (sessionCompare), windows 0, 1, 4 and 32.
func TestMonitorDifferentialAllCriteria(t *testing.T) {
	windows := []int{0, 4, 16}
	for _, hh := range differentialCorpus() {
		hh := hh
		t.Run(hh.name, func(t *testing.T) {
			for _, c := range spec.MonitorableCriteria() {
				for _, w := range windows {
					feedCompareOpts(t, c, hh.h, w, false)
				}
				if c == spec.TMS2 {
					for _, w := range windows {
						feedCompareOpts(t, c, hh.h, w, true)
					}
				}
			}
			for _, w := range []int{0, 1, 4, 32} {
				sessionCompare(t, hh.h, w, 0)
			}
		})
	}
	// A node limit tight enough that some decider goes undecided for a
	// while on a stream of concurrent chunks between quiescent points:
	// retirement must pause while it does and resume once every live
	// decider accepts again. Which limits produce such an episode depends
	// on the search's node accounting, so a range is tried and at least
	// one must; the per-event assertions hold for all of them.
	t.Run("node-limit", func(t *testing.T) {
		h, err := history.FromEvents(chunkedStream(t, 6, 10, 704))
		if err != nil {
			t.Fatal(err)
		}
		episode := false
		for limit := 1; limit <= 16; limit++ {
			pauses, resumed := sessionCompare(t, h, 4, limit)
			episode = episode || (pauses > 0 && resumed > 0)
		}
		if !episode {
			t.Fatal("no node limit in 1..16 paused retirement and then let it resume; widen the range")
		}
	})
}

// TestMonitorDifferentialAccepting cross-checks the monitor against the
// batch checkers on generated du-opaque histories, for all monitorable
// criteria.
func TestMonitorDifferentialAccepting(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 8, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5,
			PAbort: 0.2, PNoTryC: 0.15, Relax: 5, Seed: 100 + seed,
		})
		for _, c := range []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity, spec.Opacity} {
			feedCompare(t, c, h)
		}
	}
}

// TestMonitorDifferentialViolating cross-checks the monitor on histories
// with planted deferred-update violations and sourceless reads.
func TestMonitorDifferentialViolating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planted := 0
	for seed := int64(0); seed < 24 && planted < 8; seed++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 8, Objects: 3, OpsPerTxn: 3, UniqueWrites: true,
			PAbort: 0.15, Relax: 5, Seed: 200 + seed,
		})
		if m, ok := gen.MutateFutureRead(h, rng); ok {
			feedCompare(t, spec.DUOpacity, m)
			planted++
		}
		if m, ok := gen.MutateSourcelessRead(h, rng); ok {
			feedCompare(t, spec.DUOpacity, m)
			feedCompare(t, spec.FinalStateOpacity, m)
			feedCompare(t, spec.Opacity, m)
		}
	}
	if planted == 0 {
		t.Fatal("no deferred-update violations planted")
	}
}

// TestMonitorOpacityStaysUndecidedAfterSkippedPrefix is the regression
// test for the incremental opacity induction: once a response prefix's
// check hits the node limit (the prefix is skipped, not decided), the
// monitor must never report a definitive OK again — batch CheckOpacity
// of the same stream stays undecided, and so must the monitor.
func TestMonitorOpacityStaysUndecidedAfterSkippedPrefix(t *testing.T) {
	h := gen.DUOpaque(gen.Config{Txns: 8, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5,
		PAbort: 0.2, PNoTryC: 0.1, Relax: 5, Seed: 25})
	m, err := spec.NewMonitor(spec.Opacity, spec.WithNodeLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	v := feed(t, m, h)
	want := spec.CheckOpacity(h, spec.WithNodeLimit(5))
	if !want.Undecided {
		t.Skipf("seed no longer produces an undecided prefix at this limit (batch: %v)", want)
	}
	if v.OK || !v.Undecided {
		t.Fatalf("monitor reported %v after an undecided prefix; batch says %v", v, want)
	}
	if v.Reason == "" {
		t.Fatal("undecided verdict without a reason")
	}
}

func TestMonitorUnsupportedCriterion(t *testing.T) {
	for _, c := range []spec.Criterion{spec.StrictSerializability, spec.Serializability} {
		_, err := spec.NewMonitor(c)
		if err == nil {
			t.Fatalf("%v monitoring should be rejected", c)
		}
		// The error lists the supported criteria from the shared table, so
		// the message cannot drift from what NewMonitor actually accepts.
		if !strings.Contains(err.Error(), spec.MonitorableNames()) {
			t.Fatalf("error %q does not list the monitorable criteria %q", err, spec.MonitorableNames())
		}
	}
}

// TestMonitorAcceptsAllMonitorableCriteria pins the shared table against
// the constructor: every criterion MonitorableCriteria lists — TMS2 and
// RCO included — must yield a working monitor, and nothing else may.
func TestMonitorAcceptsAllMonitorableCriteria(t *testing.T) {
	for _, c := range spec.MonitorableCriteria() {
		m, err := spec.NewMonitor(c)
		if err != nil {
			t.Fatalf("NewMonitor(%v): %v", c, err)
		}
		if v := feed(t, m, litmus.ByName("serial-chain").H); !v.OK {
			t.Fatalf("%v monitor rejected the serial chain: %s", c, v.Reason)
		}
	}
	for _, c := range spec.AllCriteria() {
		_, err := spec.NewMonitor(c)
		if spec.Monitorable(c) != (err == nil) {
			t.Fatalf("Monitorable(%v)=%v but NewMonitor error=%v", c, spec.Monitorable(c), err)
		}
	}
}

// TestMonitorTMS2RCOSeparations replays the paper's conflict-order
// litmus pair through the online path: Figure 6 (du-opaque but not TMS2)
// must be rejected by the TMS2 monitor and accepted by the RCO monitor,
// and its mirror Figure 5 (du-opaque but not RCO) the other way around.
func TestMonitorTMS2RCOSeparations(t *testing.T) {
	cases := []struct {
		name    string
		h       *history.History
		rejects spec.Criterion
		accepts spec.Criterion
	}{
		{"figure-6", litmus.Figure6(), spec.TMS2, spec.RCO},
		{"figure-5", litmus.Figure5(), spec.RCO, spec.TMS2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mr, err := spec.NewMonitor(c.rejects)
			if err != nil {
				t.Fatal(err)
			}
			if v := feed(t, mr, c.h); v.OK {
				t.Fatalf("%v monitor accepted %s", c.rejects, c.name)
			}
			ma, err := spec.NewMonitor(c.accepts)
			if err != nil {
				t.Fatal(err)
			}
			if v := feed(t, ma, c.h); !v.OK {
				t.Fatalf("%v monitor rejected %s: %s", c.accepts, c.name, v.Reason)
			}
		})
	}
}

func TestMonitorOpacityCriterion(t *testing.T) {
	m, err := spec.NewMonitor(spec.Opacity)
	if err != nil {
		t.Fatal(err)
	}
	v := feed(t, m, litmus.Figure4())
	if !v.OK {
		t.Fatalf("figure 4 is opaque; monitor said %s", v.Reason)
	}
	m2, err := spec.NewMonitor(spec.Opacity)
	if err != nil {
		t.Fatal(err)
	}
	if v := feed(t, m2, litmus.Figure3()); v.OK {
		t.Fatal("figure 3 is not opaque; monitor accepted")
	}
}
