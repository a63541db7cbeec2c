// Package ple implements a pessimistic, abort-free STM with in-place
// (encounter-time) writes and unvalidated reads.
//
// Writers serialize on a global writer lock acquired at their first write
// and held until commit; their writes land in shared memory immediately.
// Readers load current values with no snapshot or validation and never
// abort. Because the single active writer is guaranteed to commit,
// transactions that read its in-flight values read from a transaction that
// has not invoked tryC — exactly the non-deferred-update signature the
// paper attributes to pessimistic STMs ([1], Afek, Matveev, Shavit:
// "technically ... not opaque, and certainly, not du-opaque"). Recorded
// histories are rejected by the du-opacity checker whenever such a read
// occurs, and can even be non-serializable when a reader observes a
// partial write set; the certification harness measures both rates.
package ple

import (
	"sync"
	"sync/atomic"

	"duopacity/internal/stm"
)

// TM is a pessimistic, abort-free software transactional memory.
type TM struct {
	wmu  sync.Mutex // serializes writer transactions
	vals []atomic.Int64
}

var _ stm.Forkable = (*TM)(nil)

// New returns a pessimistic TM over objects t-objects initialized to zero.
func New(objects int) *TM {
	return &TM{vals: make([]atomic.Int64, objects)}
}

// Name implements stm.Engine.
func (t *TM) Name() string { return "ple" }

// Begin implements stm.Engine.
func (t *TM) Begin() stm.Txn { return &txn{tm: t} }

// Fork implements stm.Forkable: the values, and per live transaction
// whether it writes and its undo log. dst's writer lock ends up held
// exactly when a writer that has not ended is among txns — the one that
// holds the receiver's.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		d = New(len(t.vals))
	}
	for i := range t.vals {
		d.vals[i].Store(t.vals[i].Load())
	}
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
		y.writer = x.writer
		y.undo = append(y.undo[:0], x.undo...)
		y.dead = x.dead
		held = held || (x.writer && !x.dead)
		out[i] = y
	}
	d.wmu.TryLock() // locked from here on, by this call or already before it
	if !held {
		d.wmu.Unlock()
	}
	return d
}

type undoEntry struct {
	obj int
	old int64
}

type txn struct {
	tm     *TM
	writer bool
	undo   []undoEntry
	dead   bool
}

var _ stm.Txn = (*txn)(nil)

func (x *txn) Read(obj int) (int64, error) {
	if x.dead {
		return 0, stm.ErrAborted
	}
	return x.tm.vals[obj].Load(), nil
}

func (x *txn) Write(obj int, v int64) error {
	if x.dead {
		return stm.ErrAborted
	}
	if !x.writer {
		x.tm.wmu.Lock()
		x.writer = true
	}
	x.undo = append(x.undo, undoEntry{obj: obj, old: x.tm.vals[obj].Load()})
	x.tm.vals[obj].Store(v) // in place, before tryC
	return nil
}

func (x *txn) Commit() error {
	if x.dead {
		return stm.ErrAborted
	}
	x.dead = true
	if x.writer {
		x.tm.wmu.Unlock()
	}
	return nil
}

func (x *txn) Abort() {
	if x.dead {
		return
	}
	x.dead = true
	if x.writer {
		for i := len(x.undo) - 1; i >= 0; i-- {
			x.tm.vals[x.undo[i].obj].Store(x.undo[i].old)
		}
		x.tm.wmu.Unlock()
	}
}
