// Package stmtest provides the conformance suite shared by every STM
// engine's tests: sequential semantics every engine must honor, plus
// concurrency invariants for the engines that guarantee them.
package stmtest

import (
	"errors"
	"sync"
	"testing"

	"duopacity/internal/stm"
)

// Factory builds a fresh engine over the given number of objects.
type Factory func(objects int) stm.Engine

// Basic exercises single-threaded semantics: initial zeros, write-read
// within a transaction, commit visibility, and transaction death after
// completion.
func Basic(t *testing.T, f Factory) {
	t.Helper()
	e := f(4)
	if e.Name() == "" {
		t.Fatal("empty engine name")
	}

	tx := e.Begin()
	if v, err := tx.Read(0); err != nil || v != 0 {
		t.Fatalf("initial read = %d, %v; want 0, nil", v, err)
	}
	if err := tx.Write(1, 42); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v, err := tx.Read(1); err != nil || v != 42 {
		t.Fatalf("own-write read = %d, %v; want 42, nil", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// The transaction is dead after commit.
	if _, err := tx.Read(0); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("read after commit = %v, want ErrAborted", err)
	}
	if err := tx.Write(0, 1); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("write after commit = %v, want ErrAborted", err)
	}
	if err := tx.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("commit after commit = %v, want ErrAborted", err)
	}
	tx.Abort() // must be a safe no-op

	// Committed value visible to a later transaction.
	tx2 := e.Begin()
	if v, err := tx2.Read(1); err != nil || v != 42 {
		t.Fatalf("committed value read = %d, %v; want 42, nil", v, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
}

// AbortRollback checks that aborted transactions leave no trace.
func AbortRollback(t *testing.T, f Factory) {
	t.Helper()
	e := f(2)
	tx := e.Begin()
	if err := tx.Write(0, 7); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := tx.Write(1, 8); err != nil {
		t.Fatalf("write: %v", err)
	}
	tx.Abort()
	tx.Abort() // idempotent

	tx2 := e.Begin()
	for obj := 0; obj < 2; obj++ {
		if v, err := tx2.Read(obj); err != nil || v != 0 {
			t.Fatalf("object %d after abort = %d, %v; want 0, nil", obj, v, err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// UserError checks that Atomically propagates non-conflict errors without
// retrying and aborts the attempt.
func UserError(t *testing.T, f Factory) {
	t.Helper()
	e := f(1)
	boom := errors.New("boom")
	calls := 0
	err := stm.Atomically(e, func(tx stm.Txn) error {
		calls++
		if werr := tx.Write(0, 9); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Atomically = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("user errors must not be retried: %d calls", calls)
	}
	tx := e.Begin()
	if v, rerr := tx.Read(0); rerr != nil || v != 0 {
		t.Fatalf("aborted attempt leaked a write: %d, %v", v, rerr)
	}
	if cerr := tx.Commit(); cerr != nil {
		t.Fatalf("commit: %v", cerr)
	}
}

// Counter runs workers goroutines each performing incs read-modify-write
// increments through Atomically and asserts the exact final count. Only
// engines whose reads are validated can pass; call it for those.
func Counter(t *testing.T, f Factory, workers, incs int) {
	t.Helper()
	e := f(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				err := stm.Atomically(e, func(tx stm.Txn) error {
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
	tx := e.Begin()
	v, err := tx.Read(0)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if cerr := tx.Commit(); cerr != nil {
		t.Fatalf("final commit: %v", cerr)
	}
	if want := int64(workers * incs); v != want {
		t.Fatalf("counter = %d, want %d", v, want)
	}
}

// BankInvariant runs concurrent transfers between accounts while readers
// sum all balances transactionally; every observed sum must equal the
// initial total. Only engines with consistent snapshots can pass.
func BankInvariant(t *testing.T, f Factory, accounts, transfers int) {
	t.Helper()
	e := f(accounts)
	const initial = 100
	// Fund the accounts.
	err := stm.Atomically(e, func(tx stm.Txn) error {
		for a := 0; a < accounts; a++ {
			if err := tx.Write(a, initial); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("funding: %v", err)
	}
	total := int64(accounts * initial)

	var wg sync.WaitGroup
	// Transfer workers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			from, to := seed%accounts, (seed+1)%accounts
			for i := 0; i < transfers; i++ {
				from, to = (from+1)%accounts, (to+3)%accounts
				if from == to {
					continue
				}
				err := stm.Atomically(e, func(tx stm.Txn) error {
					b, err := tx.Read(from)
					if err != nil {
						return err
					}
					if b == 0 {
						return nil
					}
					if err := tx.Write(from, b-1); err != nil {
						return err
					}
					c, err := tx.Read(to)
					if err != nil {
						return err
					}
					return tx.Write(to, c+1)
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	// Auditor workers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				var sum int64
				err := stm.Atomically(e, func(tx stm.Txn) error {
					sum = 0
					for a := 0; a < accounts; a++ {
						v, err := tx.Read(a)
						if err != nil {
							return err
						}
						sum += v
					}
					return nil
				})
				if err != nil {
					t.Errorf("audit: %v", err)
					return
				}
				if sum != total {
					t.Errorf("audit sum = %d, want %d", sum, total)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Smoke drives random-ish concurrent load to flush out deadlocks and data
// races (under -race); it asserts nothing about values.
func Smoke(t *testing.T, f Factory, workers, txns int) {
	t.Helper()
	e := f(8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := seed*2654435761 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				if rng < 0 {
					rng = -rng
				}
				return rng % n
			}
			for i := 0; i < txns; i++ {
				_ = stm.AtomicallyN(e.Begin, 100, func(tx stm.Txn) error {
					for op := 0; op < 4; op++ {
						obj := next(8)
						if next(2) == 0 {
							if _, err := tx.Read(obj); err != nil {
								return err
							}
						} else if err := tx.Write(obj, int64(next(1000))); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
}
