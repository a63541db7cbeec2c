package spec

import (
	"context"
	"strings"
	"testing"
	"time"

	"duopacity/internal/history"
)

// searchyHistory builds a small accepting history without unique writes
// (two transactions write the same value), so
// every check must run the serialization search — the loop WithContext's
// cancellation polling lives in.
func searchyHistory() *history.History {
	return history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Write(2, "X", 1).Commit(2).
		Write(3, "Y", 1).Commit(3).
		Read(4, "X", 1).Read(4, "Y", 1).Commit(4).
		History()
}

func TestCheckDecidesSearchyHistoryWithoutContext(t *testing.T) {
	// Sanity for the cancellation tests below: the history is accepted
	// when nothing interferes, so an undecided verdict under a cancelled
	// context is attributable to the context alone.
	for _, c := range []Criterion{DUOpacity, FinalStateOpacity, Opacity} {
		v := Check(searchyHistory(), c)
		if !v.OK || v.Undecided {
			t.Fatalf("%v: reference verdict not accepting: %v", c, v)
		}
	}
}

func TestCheckAlreadyCancelledContextIsUndecided(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []Criterion{DUOpacity, FinalStateOpacity, Opacity} {
		start := time.Now()
		v := Check(searchyHistory(), c, WithContext(ctx))
		if !v.Undecided {
			t.Fatalf("%v: cancelled context produced a decided verdict: %v", c, v)
		}
		if !strings.Contains(v.Reason, "context cancelled") {
			t.Fatalf("%v: undecided reason %q does not name the context", c, v.Reason)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%v: cancelled check took %v, want prompt return", c, d)
		}
	}
}

func TestCheckContextBackgroundIsHarmless(t *testing.T) {
	v := Check(searchyHistory(), DUOpacity, WithContext(context.Background()))
	if !v.OK || v.Undecided {
		t.Fatalf("background context changed the verdict: %v", v)
	}
}

func TestMonitorAlreadyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := NewMonitor(DUOpacity, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	// The monitor's incremental witness can decide cheap streams without
	// ever searching; cancellation only turns searches into undecided
	// verdicts. Force one: duplicate writes on Y defeat the unique-writes
	// theorem inside the batch check; T1 read X's initial value and T2,
	// placed after it, has committed X=2, so moving T1 to the end at its
	// commit is refused; T3, placed after T1, read Z's old value, so
	// committing T1 in place is refused too. The recheck at T1's commit
	// must search — and come back undecided under the cancelled context.
	h := history.NewBuilder().
		Write(5, "Y", 7).Commit(5).
		Write(6, "Y", 7).Commit(6).
		Write(1, "Z", 1).Read(1, "X", 0).
		Read(3, "Z", 0).
		Write(2, "X", 2).Commit(2).
		Commit(1).
		History()
	var last Verdict
	for _, e := range h.Events() {
		v, aerr := m.Append(e)
		if aerr != nil {
			t.Fatalf("well-formed event rejected: %v", aerr)
		}
		last = v
	}
	if !last.Undecided {
		t.Fatalf("monitor under cancelled context decided: %v", last)
	}
	if !strings.Contains(last.Reason, "context cancelled") {
		t.Fatalf("monitor undecided reason %q does not name the context", last.Reason)
	}
	// The same stream on an un-cancelled monitor is accepted, so the
	// undecided verdict above is the context's doing.
	m2, err := NewMonitor(DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	var ref Verdict
	for _, e := range h.Events() {
		v, aerr := m2.Append(e)
		if aerr != nil {
			t.Fatalf("well-formed event rejected by reference monitor: %v", aerr)
		}
		ref = v
	}
	if !ref.OK || ref.Undecided {
		t.Fatalf("reference monitor verdict not accepting: %v", ref)
	}
}
