package harness

import (
	"strings"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

// TestRunMonitoredMatchesBatch pins online certification against the
// record-then-check pipeline: for the deterministic interleaved
// scheduler, the monitored run and the batch check of the same seeded
// episode must agree on the verdict.
func TestRunMonitoredMatchesBatch(t *testing.T) {
	for _, engine := range []string{"tl2", "norec", "ple"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			w := Workload{
				Engine:           engine,
				Objects:          4,
				Goroutines:       4,
				TxnsPerGoroutine: 2,
				OpsPerTxn:        4,
				ReadFraction:     0.5,
				Seed:             8,
			}
			r, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true)
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := RunInterleaved(w)
			if err != nil {
				t.Fatal(err)
			}
			want := spec.CheckDUOpacity(h, spec.WithNodeLimit(2_000_000))
			if r.Verdict.OK != want.OK || r.Verdict.Undecided != want.Undecided {
				t.Fatalf("online verdict %v, batch %v", r.Verdict, want)
			}
			if r.Events != h.Len() {
				t.Fatalf("monitored %d events, history has %d", r.Events, h.Len())
			}
			if !r.Verdict.OK && r.ViolationAt < 0 {
				t.Fatal("latched violation without a violation index")
			}
		})
	}
}

// TestRunMonitoredIdentifiesViolationEvent pins the new capability: on
// the golden ple episode (a deferred-update violation), the live monitor
// latches at a specific event index while the run is still producing
// events — the prefix up to that event must already violate du-opacity,
// and the prefix before it must not.
func TestRunMonitoredIdentifiesViolationEvent(t *testing.T) {
	r, err := RunMonitored(pleGoldenWorkload(), spec.DUOpacity, 2_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict.OK || r.Verdict.Undecided {
		t.Fatalf("golden ple episode must violate du-opacity online, got %v", r.Verdict)
	}
	if r.ViolationAt < 0 {
		t.Fatal("no violation index recorded")
	}
	h, _, err := RunInterleaved(pleGoldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if v := spec.CheckDUOpacity(h.Prefix(r.ViolationAt + 1)); v.OK {
		t.Fatalf("prefix through event %d should violate du-opacity", r.ViolationAt)
	}
	if v := spec.CheckDUOpacity(h.Prefix(r.ViolationAt)); !v.OK {
		t.Fatalf("prefix before event %d should still be du-opaque: %s", r.ViolationAt, v.Reason)
	}
}

// TestRunMonitoredConcurrent exercises the tap under real goroutines: the
// monitor must consume a well-formed stream (no append errors, which
// would panic) and produce a verdict; tl2's runs are du-opaque in
// practice.
func TestRunMonitoredConcurrent(t *testing.T) {
	r, err := RunMonitored(Workload{
		Engine:           "tl2",
		Objects:          4,
		Goroutines:       4,
		TxnsPerGoroutine: 3,
		OpsPerTxn:        3,
		Seed:             5,
	}, spec.DUOpacity, 2_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verdict.OK {
		t.Fatalf("tl2 run rejected online: %s", r.Verdict.Reason)
	}
	if r.Events == 0 || r.Searches+r.FastHits == 0 {
		t.Fatalf("implausible monitor counters: events=%d searches=%d fastHits=%d",
			r.Events, r.Searches, r.FastHits)
	}
}

// TestRunMonitoredWithRetirement pins the option pass-through: a
// monitored run with spec.WithRetirement must reach the same verdict as
// the plain monitored run, and on a sequential workload (every
// transaction a retirement barrier) it must actually retire.
func TestRunMonitoredWithRetirement(t *testing.T) {
	w := Workload{
		Engine:           "tl2",
		Objects:          3,
		Goroutines:       1,
		TxnsPerGoroutine: 40,
		OpsPerTxn:        3,
		ReadFraction:     0.4,
		Seed:             11,
	}
	plain, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Retired != 0 {
		t.Fatalf("retirement fired without WithRetirement: %d", plain.Retired)
	}
	ret, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true, spec.WithRetirement(4))
	if err != nil {
		t.Fatal(err)
	}
	if ret.Verdict.OK != plain.Verdict.OK || ret.Verdict.Undecided != plain.Verdict.Undecided {
		t.Fatalf("retiring verdict %v diverges from plain %v", ret.Verdict, plain.Verdict)
	}
	if ret.Events != plain.Events {
		t.Fatalf("retiring run saw %d events, plain %d", ret.Events, plain.Events)
	}
	if ret.Retired == 0 {
		t.Fatal("sequential workload retired nothing")
	}
}

// TestRunMonitoredMatchesFedMonitor pins RunMonitored's report against a
// monitor fed the same interleaved run by hand, one event at a time: on
// every engine, for three seeds and both criteria, every field agrees.
func TestRunMonitoredMatchesFedMonitor(t *testing.T) {
	for _, engine := range engines.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, c := range []spec.Criterion{spec.DUOpacity, spec.Opacity} {
				w := Workload{
					Engine:           engine,
					Objects:          3,
					Goroutines:       3,
					TxnsPerGoroutine: 2,
					OpsPerTxn:        3,
					ReadFraction:     0.5,
					Seed:             seed,
				}
				r, err := RunMonitored(w, c, 2_000_000, true)
				if err != nil {
					t.Fatal(err)
				}
				h, _, err := RunInterleaved(w)
				if err != nil {
					t.Fatal(err)
				}
				m, err := spec.NewMonitor(c, spec.WithNodeLimit(2_000_000))
				if err != nil {
					t.Fatal(err)
				}
				at := -1
				for i, e := range h.Events() {
					v, err := m.Append(e)
					if err != nil {
						t.Fatalf("%s seed %d %v: event %d rejected: %v", engine, seed, c, i, err)
					}
					if at < 0 && !v.OK && !v.Undecided {
						at = i
					}
				}
				v := m.Verdict()
				searches, fastHits := m.Stats()
				got := []any{r.Verdict.OK, r.Verdict.Undecided, r.Verdict.Reason, r.ViolationAt, r.Events, r.Searches, r.FastHits, r.Retired, r.DegradedReason}
				want := []any{v.OK, v.Undecided, v.Reason, at, h.Len(), searches, fastHits, m.Retired(), ""}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s seed %d %v: RunMonitored %v, fed monitor %v", engine, seed, c, got, want)
						break
					}
				}
			}
		}
	}
}

// TestRunMonitoredMonitorPanicDegrades injects a monitor panic into the
// feed of a monitored run: an OK run becomes undecided and says it is
// degraded, and a violation latched before the panic stands.
func TestRunMonitoredMonitorPanicDegrades(t *testing.T) {
	t.Cleanup(func() { feedHook = nil })
	tl2 := Workload{
		Engine:           "tl2",
		Objects:          4,
		Goroutines:       4,
		TxnsPerGoroutine: 3,
		OpsPerTxn:        3,
		Seed:             5,
	}
	for _, w := range []Workload{tl2, pleGoldenWorkload()} {
		clean, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true)
		if err != nil {
			t.Fatal(err)
		}
		// tl2 panics half way through an OK run, ple on the event after
		// its latch.
		fault := clean.Events / 2
		if clean.ViolationAt >= 0 {
			fault = clean.ViolationAt + 1
		}
		if fault >= clean.Events {
			t.Fatalf("%s: no event to fail after %d of %d", w.Engine, fault, clean.Events)
		}
		calls := 0
		feedHook = func(history.Event) {
			if calls++; calls > fault {
				feedHook = nil
				panic("injected monitor fault")
			}
		}
		r, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true)
		feedHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r.DegradedReason, "injected monitor fault") || r.Events != fault {
			t.Errorf("%s: degraded %q after %d events; want the fault after %d", w.Engine, r.DegradedReason, r.Events, fault)
		}
		switch {
		case clean.Verdict.OK:
			if !r.Verdict.Undecided || r.Verdict.Reason != "degraded: "+r.DegradedReason {
				t.Errorf("%s: verdict %v after the fault, want undecided and degraded", w.Engine, r.Verdict)
			}
		case r.Verdict.OK || r.Verdict.Undecided || r.ViolationAt != clean.ViolationAt:
			t.Errorf("%s: verdict %v latched at %d after the fault, want the violation at %d to stand",
				w.Engine, r.Verdict, r.ViolationAt, clean.ViolationAt)
		}
	}
}
