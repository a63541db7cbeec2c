package tl2

import (
	"errors"
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
func TestBankInvariant(t *testing.T) { stmtest.BankInvariant(t, factory, 8, 300) }
func TestSmoke(t *testing.T)         { stmtest.Smoke(t, factory, 8, 200) }

func TestReadSeesCommittedOnly(t *testing.T) {
	// A reader that began before a writer's commit aborts (its read
	// version is stale) rather than observing a mix.
	tm := New(2, cm.Passive)
	reader := tm.Begin()
	if v, err := reader.Read(0); err != nil || v != 0 {
		t.Fatalf("read(0) = %d, %v", v, err)
	}
	// Writer commits both objects.
	if err := stm.Atomically(tm, func(tx stm.Txn) error {
		if err := tx.Write(0, 1); err != nil {
			return err
		}
		return tx.Write(1, 1)
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The reader's second read must abort: object 1 now carries a version
	// newer than the reader's read version.
	if _, err := reader.Read(1); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("stale read = %v, want ErrAborted", err)
	}
	reader.Abort()
}

func TestWriteWriteConflictAborts(t *testing.T) {
	tm := New(1, cm.Passive)
	a := tm.Begin()
	b := tm.Begin()
	if err := a.Write(0, 1); err != nil {
		t.Fatalf("a.Write: %v", err)
	}
	if err := b.Write(0, 2); err != nil {
		t.Fatalf("b.Write: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("a.Commit: %v", err)
	}
	// b's commit must fail: its read version predates a's commit and the
	// object version moved.
	if err := b.Commit(); err == nil {
		tx := tm.Begin()
		v, _ := tx.Read(0)
		tx.Abort()
		if v != 2 {
			t.Fatalf("b committed but value = %d", v)
		}
		// If b happened to win the race legitimately the value must be b's.
	}
}

func TestClockAdvancesOnCommit(t *testing.T) {
	tm := New(1, cm.Passive)
	before := tm.clock.Load()
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 5) }); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if after := tm.clock.Load(); after != before+1 {
		t.Fatalf("clock = %d, want %d", after, before+1)
	}
	// Read-only transactions do not advance the clock.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { _, err := tx.Read(0); return err }); err != nil {
		t.Fatalf("read-only: %v", err)
	}
	if after := tm.clock.Load(); after != before+1 {
		t.Fatalf("read-only commit moved the clock to %d", after)
	}
}

func TestLocksReleasedAfterAbortedCommit(t *testing.T) {
	tm := New(2, cm.Passive)
	a := tm.Begin()
	if _, err := a.Read(0); err != nil {
		t.Fatalf("a.Read: %v", err)
	}
	if err := a.Write(1, 1); err != nil {
		t.Fatalf("a.Write: %v", err)
	}
	// Interfering commit invalidates a's read set.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 9) }); err != nil {
		t.Fatalf("interferer: %v", err)
	}
	if err := a.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("a.Commit = %v, want ErrAborted", err)
	}
	// The write lock on object 1 must have been released.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(1, 3) }); err != nil {
		t.Fatalf("object 1 still locked: %v", err)
	}
}
