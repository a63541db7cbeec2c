package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"duopacity/internal/history"
	"duopacity/internal/recorder"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// driveSerial runs n sequential transactions (write then read then
// commit) on the wrapped engine and returns the per-transaction outcome
// pattern ('c' committed, 'a' aborted).
func driveSerial(t *testing.T, e *Engine, n int) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		tx := e.Begin()
		ok := true
		if err := tx.Write(0, int64(i+1)); err != nil {
			ok = false
		}
		if ok {
			if _, err := tx.Read(0); err != nil {
				ok = false
			}
		}
		if ok && tx.Commit() == nil {
			b.WriteByte('c')
		} else {
			tx.Abort()
			b.WriteByte('a')
		}
	}
	return b.String()
}

func TestWrapZeroProfileInjectsNothing(t *testing.T) {
	base, err := engines.New("tl2", 2)
	if err != nil {
		t.Fatal(err)
	}
	e := Wrap(base, Profile{})
	if got := driveSerial(t, e, 50); strings.Contains(got, "a") {
		t.Fatalf("zero profile injected aborts: %s", got)
	}
	if a, d := e.aborts.Load(), e.delays.Load(); a != 0 || d != 0 {
		t.Fatalf("zero profile counted faults: %d aborts, %d delays", a, d)
	}
}

func TestWrapPreservesName(t *testing.T) {
	base, err := engines.New("norec", 2)
	if err != nil {
		t.Fatal(err)
	}
	e := Wrap(base, Profile{SpuriousAbort: 0.5, Seed: 1})
	if e.Name() != "norec" {
		t.Fatalf("Name() = %q, want norec", e.Name())
	}
}

func TestWrapFaultScheduleIsDeterministic(t *testing.T) {
	type counts struct{ aborts, delays int64 }
	runOnce := func() (string, counts) {
		base, err := engines.New("tl2", 2)
		if err != nil {
			t.Fatal(err)
		}
		e := Wrap(base, Profile{SpuriousAbort: 0.3, CommitDelay: 0.3, Seed: 42})
		return driveSerial(t, e, 100), counts{e.aborts.Load(), e.delays.Load()}
	}
	p1, s1 := runOnce()
	p2, s2 := runOnce()
	if p1 != p2 {
		t.Fatalf("fault pattern not reproducible:\n%s\n%s", p1, p2)
	}
	if s1 != s2 {
		t.Fatalf("fault counts not reproducible: %+v vs %+v", s1, s2)
	}
	if s1.aborts == 0 {
		t.Fatal("profile injected no spurious aborts in 100 transactions")
	}
	if s1.delays == 0 {
		t.Fatal("profile injected no commit delays in 100 transactions")
	}
}

func TestWrapSpuriousAbortMatchesRealAbort(t *testing.T) {
	// After a strike, every further operation on the transaction must
	// behave like a real aborted transaction (ErrAborted, no effect), and
	// the engine must accept new transactions normally.
	base, err := engines.New("tl2", 2)
	if err != nil {
		t.Fatal(err)
	}
	e := Wrap(base, Profile{SpuriousAbort: 1, Seed: 7})
	tx := e.Begin()
	if err := tx.Write(0, 1); err == nil {
		t.Fatal("certain-abort profile let a write through")
	}
	if _, err := tx.Read(0); err == nil {
		t.Fatal("operation after the strike succeeded")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after the strike succeeded")
	}
	// The engine stays usable: a fault-free wrapper on the same inner
	// engine commits.
	clean := Wrap(base, Profile{})
	tx2 := clean.Begin()
	if err := tx2.Write(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestKillSafe checks the trait the driver gates thread kills on: on
// every KillSafe engine, wrapped as the soak wraps it, a transaction
// abandoned mid-flight (it read and wrote both objects, then its
// goroutine just stopped) blocks nobody — a later transaction over the
// same objects commits — and its writes never take effect.
func TestKillSafe(t *testing.T) {
	var safe []string
	for _, name := range engines.Names() {
		if engines.TraitsOf(name).KillSafe {
			safe = append(safe, name)
		}
	}
	if len(safe) == 0 {
		t.Fatal("no kill-safe engine: the soak would test nothing")
	}
	for _, name := range safe {
		eng, err := engines.New(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		e := Wrap(eng, Profile{})
		abandoned := e.Begin()
		if _, err := abandoned.Read(0); err != nil {
			t.Fatalf("%s: abandoned read: %v", name, err)
		}
		if err := abandoned.Write(0, 99); err != nil {
			t.Fatalf("%s: abandoned write: %v", name, err)
		}
		if err := abandoned.Write(1, 99); err != nil {
			t.Fatalf("%s: abandoned write: %v", name, err)
		}

		done := make(chan error, 1)
		var x, y int64
		go func() {
			done <- stm.Atomically(e, func(tx stm.Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				if err := tx.Write(0, v+1); err != nil {
					return err
				}
				if err := tx.Write(1, v+1); err != nil {
					return err
				}
				x, err = tx.Read(0)
				if err != nil {
					return err
				}
				y, err = tx.Read(1)
				return err
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: transaction after the abandoned one: %v", name, err)
			} else if x != 1 || y != 1 {
				t.Errorf("%s: the committed transaction read back (%d, %d), want (1, 1): the abandoned writes showed", name, x, y)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: blocked behind an abandoned transaction", name)
		}
	}
}

// TestJunkSourceAlwaysRejected is the junk contract: against any stream
// state JunkSource has shadowed, every junk event must be rejected by
// history.Stream (and therefore by spec.Monitor, which validates through
// the same stream), with the stream unchanged.
func TestJunkSourceAlwaysRejected(t *testing.T) {
	// A real recorded history provides the event stream to shadow.
	base, err := engines.New("tl2", 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.New(base)
	for i := 0; i < 6; i++ {
		tx := rec.Begin()
		tx.Write(i%3, int64(i+1))
		tx.Read((i + 1) % 3)
		if i%2 == 0 {
			tx.Commit()
		} else {
			tx.Abort()
		}
	}
	evs := rec.History().Events()

	for seed := int64(0); seed < 5; seed++ {
		js := NewJunkSource(seed)
		st := history.NewStream()
		for i, e := range evs {
			// Several junk draws per position, so every candidate kind gets
			// exercised against every stream state.
			for k := 0; k < 3; k++ {
				junk, desc := js.Junk()
				before := st.History().Len()
				if err := st.Append(junk); err == nil {
					t.Fatalf("seed %d, position %d: junk accepted (%s): %v", seed, i, desc, junk)
				}
				if st.History().Len() != before {
					t.Fatalf("seed %d, position %d: junk rejection changed the stream (%s)", seed, i, desc)
				}
			}
			if err := st.Append(e); err != nil {
				t.Fatalf("well-formed event %d rejected: %v", i, err)
			}
			js.Observe(e)
		}
		if js.Injected() != 3*len(evs) {
			t.Fatalf("seed %d: injected accounting = %d, want %d", seed, js.Injected(), 3*len(evs))
		}
	}
}

func TestFarmFaultsStrikeSchedule(t *testing.T) {
	f := &FarmFaults{PanicEvery: 2, PanicAttempts: 2}
	mustPanic := func(shard, attempt int) bool {
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			f.Strike(shard, attempt)
		}()
		return panicked
	}
	cases := []struct {
		shard, attempt int
		want           bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, false},
		{1, 0, false},
		{2, 0, true}, {2, 2, false},
	}
	for _, c := range cases {
		if got := mustPanic(c.shard, c.attempt); got != c.want {
			t.Errorf("Strike(%d, %d) panicked = %v, want %v", c.shard, c.attempt, got, c.want)
		}
	}
	if f.Panics() != 3 {
		t.Errorf("Panics() = %d, want 3", f.Panics())
	}
}

func TestFarmFaultsNilReceiverAndSlow(t *testing.T) {
	var nilFaults *FarmFaults
	nilFaults.Strike(0, 0) // must not panic

	f := &FarmFaults{SlowEvery: 1, Delay: time.Millisecond}
	f.Strike(0, 0)
	f.Strike(0, 1) // retries are not slowed
	if f.Slowed() != 1 {
		t.Errorf("Slowed() = %d, want 1", f.Slowed())
	}
}

func TestFarmFaultsContextRoundTrip(t *testing.T) {
	if got := FarmFaultsFromContext(context.Background()); got != nil {
		t.Fatalf("empty context carried faults: %v", got)
	}
	f := &FarmFaults{PanicEvery: 1}
	ctx := WithFarmFaults(context.Background(), f)
	if got := FarmFaultsFromContext(ctx); got != f {
		t.Fatalf("context round trip lost the fault schedule")
	}
}
