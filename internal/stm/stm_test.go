package stm_test

import (
	"errors"
	"testing"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
	"duopacity/internal/stm/engines"
	"duopacity/internal/stm/tl2"
)

func TestAtomicallyRetriesConflicts(t *testing.T) {
	tm := tl2.New(1, cm.Passive)
	// Force one conflict: the first attempt's read version is invalidated
	// by an interfering commit before its own commit.
	attempt := 0
	err := stm.Atomically(tm, func(tx stm.Txn) error {
		attempt++
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		if attempt == 1 {
			if ierr := stm.Atomically(tm, func(itx stm.Txn) error { return itx.Write(0, 99) }); ierr != nil {
				return ierr
			}
		}
		return tx.Write(0, v+1)
	})
	if err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if attempt < 2 {
		t.Fatalf("expected a retry, got %d attempts", attempt)
	}
	tx := tm.Begin()
	v, _ := tx.Read(0)
	_ = tx.Commit()
	if v != 100 {
		t.Fatalf("final value = %d, want 100", v)
	}
}

func TestAtomicallyNBoundsAttempts(t *testing.T) {
	tm := tl2.New(1, cm.Passive)
	calls := 0
	err := stm.AtomicallyN(tm.Begin, 3, func(tx stm.Txn) error {
		calls++
		return stm.ErrAborted // simulate a persistent conflict
	})
	if !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if calls != 3 {
		t.Fatalf("attempts = %d, want 3", calls)
	}
}

func TestEngineRegistry(t *testing.T) {
	for _, name := range engines.Names() {
		e, err := engines.New(name, 4)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("engine %q reports name %q", name, e.Name())
		}
		// Each registered engine must complete a trivial transaction.
		if err := stm.Atomically(e, func(tx stm.Txn) error {
			if _, err := tx.Read(0); err != nil {
				return err
			}
			return tx.Write(1, 7)
		}); err != nil {
			t.Errorf("engine %q trivial txn: %v", name, err)
		}
	}
	if _, err := engines.New("bogus", 1); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestDeferredUpdateFlag(t *testing.T) {
	want := map[string]bool{
		"tl2": true, "norec": true, "gl": true, "dstm": true, "pdur": true,
		"etl": false, "etl+v": false, "ple": false,
	}
	for name, du := range want {
		if got := engines.TraitsOf(name).DeferredUpdate; got != du {
			t.Errorf("TraitsOf(%q).DeferredUpdate = %v, want %v", name, got, du)
		}
	}
}
