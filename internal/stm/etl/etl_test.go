package etl

import (
	"errors"
	"testing"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
	"duopacity/internal/stm/stmtest"
)

func base(objects int) stm.Engine      { return New(objects, cm.Passive, false) }
func validated(objects int) stm.Engine { return New(objects, cm.Passive, true) }

func TestBasicBase(t *testing.T)              { stmtest.Basic(t, base) }
func TestBasicValidated(t *testing.T)         { stmtest.Basic(t, validated) }
func TestAbortRollbackBase(t *testing.T)      { stmtest.AbortRollback(t, base) }
func TestAbortRollbackValidated(t *testing.T) { stmtest.AbortRollback(t, validated) }
func TestUserErrorBase(t *testing.T)          { stmtest.UserError(t, base) }
func TestCounterValidated(t *testing.T)       { stmtest.Counter(t, validated, 8, 200) }
func TestSmokeBase(t *testing.T)              { stmtest.Smoke(t, base, 8, 200) }
func TestSmokeValidated(t *testing.T)         { stmtest.Smoke(t, validated, 8, 200) }

func TestNames(t *testing.T) {
	if got := New(1, cm.Passive, false).Name(); got != "etl" {
		t.Errorf("Name = %q, want etl", got)
	}
	if got := New(1, cm.Passive, true).Name(); got != "etl+v" {
		t.Errorf("Name = %q, want etl+v", got)
	}
}

func TestInPlaceWritesVisibleBeforeCommit(t *testing.T) {
	// The documented (anti-)feature: encounter-time writes hit shared
	// memory before tryC. A raw engine read cannot observe it (readers of
	// owned objects abort), but the value is physically there.
	tm := New(1, cm.Passive, false)
	w := tm.Begin()
	if err := w.Write(0, 5); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := tm.vals[0].Load(); got != 5 {
		t.Fatalf("in-place value = %d, want 5 before commit", got)
	}
	// A concurrent reader aborts on the ownership check.
	r := tm.Begin()
	if _, err := r.Read(0); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("read of owned object = %v, want ErrAborted", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestUndoRestoresOnAbort(t *testing.T) {
	tm := New(1, cm.Passive, false)
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 3) }); err != nil {
		t.Fatalf("setup: %v", err)
	}
	w := tm.Begin()
	if err := w.Write(0, 10); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Write(0, 11); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Abort()
	if got := tm.vals[0].Load(); got != 3 {
		t.Fatalf("value after rollback = %d, want 3", got)
	}
	if got := tm.owner[0].Load(); got != 0 {
		t.Fatalf("ownership not released: %d", got)
	}
}

func TestValidationAbortsStaleRead(t *testing.T) {
	tm := New(2, cm.Passive, true)
	r := tm.Begin()
	if _, err := r.Read(0); err != nil {
		t.Fatalf("read: %v", err)
	}
	// Another transaction commits a change to object 0.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 9) }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if _, err := r.Read(1); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("stale validated read = %v, want ErrAborted", err)
	}
}

func TestValidationAcceptsOwnWriteAfterRead(t *testing.T) {
	// Read X then write X in the same transaction: validation must compare
	// against the acquisition-time value, not the own in-place write.
	tm := New(2, cm.Passive, true)
	tx := tm.Begin()
	v, err := tx.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := tx.Write(0, v+1); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := tx.Read(1); err != nil {
		t.Fatalf("validating read after own write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got := tm.vals[0].Load()
	if got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	tm := New(1, cm.Passive, false)
	a := tm.Begin()
	if err := a.Write(0, 1); err != nil {
		t.Fatalf("a.Write: %v", err)
	}
	b := tm.Begin()
	if err := b.Write(0, 2); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("b.Write = %v, want ErrAborted (object owned)", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("a.Commit: %v", err)
	}
}
