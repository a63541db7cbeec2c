package norec

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

func TestSeqStaysEvenWhenIdle(t *testing.T) {
	tm := New(1, cm.Passive)
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 1) }); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if s := tm.seq.Load(); s%2 != 0 {
		t.Fatalf("sequence lock left odd: %d", s)
	}
	if s := tm.seq.Load(); s != 2 {
		t.Fatalf("sequence = %d, want 2 after one writer commit", s)
	}
}

func TestValueValidationAbortsStaleReader(t *testing.T) {
	tm := New(2, cm.Passive)
	reader := tm.Begin()
	if v, err := reader.Read(0); err != nil || v != 0 {
		t.Fatalf("read(0) = %d, %v", v, err)
	}
	// A writer changes object 0: the reader's log is now stale by value.
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 7) }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if _, err := reader.Read(1); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("stale reader read = %v, want ErrAborted", err)
	}
}

func TestValueValidationToleratesABA(t *testing.T) {
	// NOrec validates by value: if a writer restores the exact value the
	// reader logged, the reader may continue (this is NOrec's documented
	// semantics, not a bug — the snapshot is still consistent by value).
	tm := New(2, cm.Passive)
	reader := tm.Begin()
	if _, err := reader.Read(0); err != nil {
		t.Fatalf("read(0): %v", err)
	}
	if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, 0) }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if v, err := reader.Read(1); err != nil || v != 0 {
		t.Fatalf("read(1) = %d, %v; want 0, nil (value-based validation)", v, err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("reader commit: %v", err)
	}
}

func TestWriterCommitBumpsByTwo(t *testing.T) {
	tm := New(1, cm.Passive)
	for i := 1; i <= 3; i++ {
		if err := stm.Atomically(tm, func(tx stm.Txn) error { return tx.Write(0, int64(i)) }); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if s := tm.seq.Load(); s != int64(2*i) {
			t.Fatalf("seq after %d commits = %d, want %d", i, s, 2*i)
		}
	}
}
