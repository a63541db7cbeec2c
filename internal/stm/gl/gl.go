// Package gl implements the global-lock STM: one mutex held for the whole
// transaction. Execution is fully serial, transactions never abort (except
// by explicit request), and writes are in place with an undo log for
// rollback. It is the correctness and single-thread-performance baseline:
// recorded histories are t-sequential and always du-opaque.
package gl

import (
	"sync"

	"duopacity/internal/stm"
)

// TM is a global-lock software transactional memory.
type TM struct {
	mu   sync.Mutex
	vals []int64
}

var _ stm.Forkable = (*TM)(nil)

// New returns a global-lock TM over objects t-objects initialized to zero.
func New(objects int) *TM {
	return &TM{vals: make([]int64, objects)}
}

// Name implements stm.Engine.
func (t *TM) Name() string { return "gl" }

// Begin implements stm.Engine. It blocks until the global lock is
// available; the transaction holds the lock until Commit or Abort.
func (t *TM) Begin() stm.Txn {
	t.mu.Lock()
	return &txn{tm: t}
}

// Fork implements stm.Forkable: the values, and per live transaction its
// undo log. dst's global lock ends up held exactly when a transaction
// that has not ended is among txns — the one that holds the receiver's.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		d = New(len(t.vals))
	}
	copy(d.vals, t.vals)
	held := false
	for i, tx := range txns {
		if tx == nil {
			continue
		}
		x := tx.(*txn)
		y, _ := out[i].(*txn)
		if y == nil {
			y = &txn{}
		}
		y.tm = d
		y.undo = append(y.undo[:0], x.undo...)
		y.dead = x.dead
		held = held || !x.dead
		out[i] = y
	}
	d.mu.TryLock() // locked from here on, by this call or already before it
	if !held {
		d.mu.Unlock()
	}
	return d
}

type undoEntry struct {
	obj int
	old int64
}

type txn struct {
	tm   *TM
	undo []undoEntry
	dead bool
}

var _ stm.Txn = (*txn)(nil)

func (x *txn) Read(obj int) (int64, error) {
	if x.dead {
		return 0, stm.ErrAborted
	}
	return x.tm.vals[obj], nil
}

func (x *txn) Write(obj int, v int64) error {
	if x.dead {
		return stm.ErrAborted
	}
	x.undo = append(x.undo, undoEntry{obj: obj, old: x.tm.vals[obj]})
	x.tm.vals[obj] = v
	return nil
}

func (x *txn) Commit() error {
	if x.dead {
		return stm.ErrAborted
	}
	x.dead = true
	x.tm.mu.Unlock()
	return nil
}

func (x *txn) Abort() {
	if x.dead {
		return
	}
	x.dead = true
	for i := len(x.undo) - 1; i >= 0; i-- {
		x.tm.vals[x.undo[i].obj] = x.undo[i].old
	}
	x.tm.mu.Unlock()
}
