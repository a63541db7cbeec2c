package pdur

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

func TestPartitionCount(t *testing.T) {
	if got := len(New(256, cm.Passive).parts); got != partitions {
		t.Errorf("default partitions = %d, want %d", got, partitions)
	}
	if got := len(New(4, cm.Passive).parts); got != 4 {
		t.Errorf("partitions clamped = %d, want 4", got)
	}
	if got := len(newTM(64, cm.Passive, 2).parts); got != 2 {
		t.Errorf("newTM(64, cm.Passive, 2) partitions = %d", got)
	}
	tm := newTM(64, cm.Passive, 4)
	// Contiguous block mapping: disjoint ranges hit disjoint certifiers.
	if tm.pidx(0) != 0 || tm.pidx(15) != 0 || tm.pidx(16) != 1 || tm.pidx(63) != 3 {
		t.Errorf("block mapping broken: %d %d %d %d",
			tm.pidx(0), tm.pidx(15), tm.pidx(16), tm.pidx(63))
	}
}

// Disjoint-partition commits must not invalidate each other: a
// transaction writing partition 0 commits while a transaction that read
// and writes only partition 1 is still live, and the latter still
// commits.
func TestDisjointPartitionsCommitIndependently(t *testing.T) {
	tm := newTM(32, cm.Passive, 2) // objects 0-15 -> p0, 16-31 -> p1
	b := tm.Begin()
	if _, err := b.Read(16); err != nil {
		t.Fatalf("b.Read: %v", err)
	}
	if err := b.Write(17, 1); err != nil {
		t.Fatalf("b.Write: %v", err)
	}
	// A full write-commit in partition 0 while b is live.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 9) }); err != nil {
		t.Fatalf("partition-0 writer: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("b.Commit after disjoint commit: %v", err)
	}
}

// A commit in a partition the reader touched forces revalidation; a
// changed value kills the reader (no stale mixes).
func TestCrossPartitionConsistency(t *testing.T) {
	tm := newTM(32, cm.Passive, 2)
	r := tm.Begin()
	if v, err := r.Read(0); err != nil || v != 0 {
		t.Fatalf("read(0) = %d, %v", v, err)
	}
	// Writer commits to both partitions.
	if err := stm.Atomically(tm, func(tx stm.Txn) error {
		if err := tx.Write(0, 5); err != nil {
			return err
		}
		return tx.Write(16, 5)
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}
	// r's old read of object 0 is now stale by value: reading the other
	// partition must not expose the new state alongside it.
	if _, err := r.Read(16); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("stale cross-partition read = %v, want ErrAborted", err)
	}
	r.Abort()
}

// Deferred update: a buffered write is invisible to other transactions
// until commit.
func TestWritesDeferredUntilCommit(t *testing.T) {
	tm := New(8, cm.Passive)
	w := tm.Begin()
	if err := w.Write(0, 42); err != nil {
		t.Fatalf("w.Write: %v", err)
	}
	var seen int64
	if err := stm.Atomically(tm, func(tx stm.Txn) error {
		v, err := tx.Read(0)
		seen = v
		return err
	}); err != nil {
		t.Fatalf("reader: %v", err)
	}
	if seen != 0 {
		t.Fatalf("reader saw uncommitted write: %d", seen)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("w.Commit: %v", err)
	}
	if err := stm.Atomically(tm, func(tx stm.Txn) error {
		v, err := tx.Read(0)
		seen = v
		return err
	}); err != nil {
		t.Fatalf("reader: %v", err)
	}
	if seen != 42 {
		t.Fatalf("committed write lost: %d", seen)
	}
}

// Partition locks are released after a failed certification.
func TestLocksReleasedAfterAbortedCommit(t *testing.T) {
	tm := newTM(32, cm.Passive, 2)
	a := tm.Begin()
	if _, err := a.Read(0); err != nil {
		t.Fatalf("a.Read: %v", err)
	}
	if err := a.Write(16, 1); err != nil {
		t.Fatalf("a.Write: %v", err)
	}
	// Interfering commit invalidates a's read.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 9) }); err != nil {
		t.Fatalf("interferer: %v", err)
	}
	if err := a.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("a.Commit = %v, want ErrAborted", err)
	}
	// Both partitions must be usable again.
	if err := stm.Atomically(tm, func(tx stm.Txn) error {
		if err := tx.Write(0, 1); err != nil {
			return err
		}
		return tx.Write(16, 2)
	}); err != nil {
		t.Fatalf("partitions still locked: %v", err)
	}
}
