package dstm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
	"duopacity/internal/stm/stmtest"
)

func factory(objects int) stm.Engine { return New(objects, cm.Passive) }

func TestBasic(t *testing.T)         { stmtest.Basic(t, factory) }
func TestAbortRollback(t *testing.T) { stmtest.AbortRollback(t, factory) }
func TestUserError(t *testing.T)     { stmtest.UserError(t, factory) }
func TestCounter(t *testing.T)       { stmtest.Counter(t, factory, 8, 200) }
func TestSmoke(t *testing.T)         { stmtest.Smoke(t, factory, 8, 200) }

// TestPolicies runs the suites on bare dstm's conflict policy, which
// kills the conflicting owner.
func TestPolicies(t *testing.T) {
	t.Run("aggressive", func(t *testing.T) {
		stmtest.Basic(t, factory)
		stmtest.Smoke(t, factory, 4, 100)
	})
}

func TestReadersSeeOldValueOfActiveOwner(t *testing.T) {
	// The deferred-update guarantee: while a writer is active, readers see
	// the pre-transaction value.
	tm := New(1, cm.Passive)
	w := tm.Begin()
	if err := w.Write(0, 42); err != nil {
		t.Fatalf("write: %v", err)
	}
	r := tm.Begin()
	v, err := r.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v != 0 {
		t.Fatalf("reader saw %d, want the committed 0", v)
	}
	if err := r.Commit(); err != nil {
		t.Fatalf("reader commit: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("writer commit: %v", err)
	}
	// After commit the new value is current.
	r2 := tm.Begin()
	if v, err := r2.Read(0); err != nil || v != 42 {
		t.Fatalf("post-commit read = %d, %v; want 42", v, err)
	}
	_ = r2.Commit()
}

func TestAggressiveAbortsConflictingOwner(t *testing.T) {
	tm := New(1, cm.Passive) // bare dstm kills the conflicting owner
	a := tm.Begin()
	if err := a.Write(0, 1); err != nil {
		t.Fatalf("a.Write: %v", err)
	}
	b := tm.Begin()
	if err := b.Write(0, 2); err != nil {
		t.Fatalf("b.Write should steal ownership: %v", err)
	}
	// a was aborted by b's contention manager.
	if err := a.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("a.Commit = %v, want ErrAborted", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("b.Commit: %v", err)
	}
	r := tm.Begin()
	if v, _ := r.Read(0); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	_ = r.Commit()
}

func TestValidationCatchesStaleRead(t *testing.T) {
	tm := New(2, cm.Passive)
	r := tm.Begin()
	if _, err := r.Read(0); err != nil {
		t.Fatalf("read: %v", err)
	}
	// A writer commits a change to object 0.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 9) }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The reader's next access validates the read log and aborts.
	if _, err := r.Read(1); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("stale read = %v, want ErrAborted", err)
	}
}

func TestSpeculativeValuesInvisibleAfterAbort(t *testing.T) {
	tm := New(1, cm.Passive)
	w := tm.Begin()
	if err := w.Write(0, 7); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Abort()
	r := tm.Begin()
	if v, _ := r.Read(0); v != 0 {
		t.Fatalf("aborted speculative value leaked: %d", v)
	}
	_ = r.Commit()
}

func TestConcurrentMixedPolicies(t *testing.T) {
	// Several goroutines over one TM: no deadlock, exact counting.
	tm := New(1, cm.Passive)
	var wg sync.WaitGroup
	const workers, incs = 6, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				err := stm.Atomically(tm, func(tx stm.Txn) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				})
				if err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	tx := tm.Begin()
	v, err := tx.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if v != workers*incs {
		t.Fatalf("counter = %d, want %d", v, workers*incs)
	}
}

// TestNoWriteSkewAtCommit races two commits that each read the object the
// other writes — a write-skew pair, which no serialization lets both
// commit: whichever commits second read a value the first overwrote.
// Validation and the commit point must be one step for every committer;
// with them apart, both could validate before either committed. The two
// are released together by a spin flag, and each also reads a run of
// untouched objects, so that the commit validations overlap.
func TestNoWriteSkewAtCommit(t *testing.T) {
	const rounds, pad = 2000, 64
	for r := 0; r < rounds; r++ {
		tm := New(2+pad, cm.Passive)
		var ready, wg sync.WaitGroup
		var start atomic.Bool
		var committed [2]bool
		for g := 0; g < 2; g++ {
			ready.Add(1)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tx := tm.Begin()
				ok := true
				for o := 2; o < 2+pad && ok; o++ {
					_, err := tx.Read(o)
					ok = err == nil
				}
				_, rerr := tx.Read(1 - g)
				werr := tx.Write(g, 1)
				ready.Done()
				for !start.Load() {
					runtime.Gosched()
				}
				committed[g] = ok && rerr == nil && werr == nil && tx.Commit() == nil
			}(g)
		}
		ready.Wait()
		start.Store(true)
		wg.Wait()
		if committed[0] && committed[1] {
			t.Fatalf("round %d: both transactions of a write-skew pair committed", r)
		}
	}
}
