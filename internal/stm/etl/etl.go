// Package etl implements an encounter-time-locking STM: per-object owner
// locks acquired at first write, in-place updates with an undo log, and —
// optionally — value-based read validation.
//
// Contention management is pluggable (WithPolicy): when a read or a
// write hits an object owned by another transaction, the contention
// manager decides whether to back off (a bounded spin — the owner may
// release) and retry, or to roll back immediately. The default passive
// policy reproduces the original fail-fast behavior. Waits are always
// bounded: an owner that never releases (e.g. a vthread suspended by
// the deterministic stepper) exhausts the wait budget and the
// transaction degrades to fail-fast, so the stepper's no-blocking
// admissibility rule holds for every policy.
//
// Eager (write-through) designs in the DSTM/TinySTM family expose a window
// in which a doomed or still-running writer's values are observable; the
// base configuration here deliberately keeps that window (reads are only
// guarded by an ownership check, with no revalidation), making it the
// repository's ablation knob for zombie reads: recorded histories are
// frequently rejected by the du-opacity checker. WithValidation narrows
// the window with NOrec-style value validation of the whole read log on
// every read and at commit.
package etl

import (
	"sync/atomic"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
)

// TM is an encounter-time-locking software transactional memory.
type TM struct {
	validate bool
	policy   cm.Policy
	src      *cm.Source
	nextID   atomic.Int64
	owner    []atomic.Int64 // 0 = unowned, otherwise transaction serial
	vals     []atomic.Int64
}

var _ stm.Forkable = (*TM)(nil)

// Option configures the engine.
type Option func(*TM)

// WithValidation enables value-based read-log validation on every read and
// at commit, closing most (not all: the check is not atomic with the read)
// zombie-read windows.
func WithValidation() Option {
	return func(t *TM) { t.validate = true }
}

// WithPolicy selects the contention-management policy (default
// cm.Passive, the fail-fast behavior).
func WithPolicy(p cm.Policy) Option {
	return func(t *TM) { t.policy = p }
}

// New returns an ETL TM over objects t-objects initialized to zero.
func New(objects int, opts ...Option) *TM {
	t := &TM{
		owner: make([]atomic.Int64, objects),
		vals:  make([]atomic.Int64, objects),
	}
	for _, o := range opts {
		o(t)
	}
	t.src = cm.NewSource(t.policy)
	return t
}

// Name implements stm.Engine.
func (t *TM) Name() string {
	name := "etl"
	if t.validate {
		name = "etl+v"
	}
	if t.policy != cm.Passive {
		name += "+" + t.policy.String()
	}
	return name
}

// Objects implements stm.Engine.
func (t *TM) Objects() int { return len(t.vals) }

// Begin implements stm.Engine.
func (t *TM) Begin() stm.Txn {
	x := &txn{tm: t, id: t.nextID.Add(1)}
	t.src.Reset(&x.mgr)
	return x
}

type undoEntry struct {
	obj int
	old int64
}

type readEntry struct {
	obj int
	val int64
}

type txn struct {
	tm    *TM
	id    int64
	owned []int
	// acqVal records, per owned object, its value at lock acquisition:
	// read-log validation must compare against that value, not against the
	// transaction's own in-place writes.
	acqVal map[int]int64
	undo   []undoEntry
	rset   []readEntry
	mgr    cm.Manager
	dead   bool
}

var _ stm.Txn = (*txn)(nil)

func (x *txn) Read(obj int) (int64, error) {
	if x.dead {
		return 0, stm.ErrAborted
	}
	if x.tm.owner[obj].Load() == x.id {
		return x.tm.vals[obj].Load(), nil // own in-place write
	}
	for x.tm.owner[obj].Load() != 0 {
		// Owned by another transaction: wait it out if the policy
		// allows (the owner releases at commit/rollback), else fail
		// fast.
		if x.mgr.Conflict(nil) != cm.Wait {
			x.rollback()
			return 0, stm.ErrAborted
		}
		x.mgr.Backoff()
	}
	x.mgr.Progress()
	x.mgr.Opened()
	v := x.tm.vals[obj].Load()
	x.rset = append(x.rset, readEntry{obj: obj, val: v})
	if x.tm.validate && !x.valid() {
		x.rollback()
		return 0, stm.ErrAborted
	}
	return v, nil
}

// valid re-checks the read log: objects the transaction owns must have held
// the logged value when the lock was acquired; other objects must be
// unowned and still hold the logged value.
func (x *txn) valid() bool {
	for _, r := range x.rset {
		if acq, own := x.acqVal[r.obj]; own {
			if acq != r.val {
				return false
			}
			continue
		}
		if o := x.tm.owner[r.obj].Load(); o != 0 && o != x.id {
			return false
		}
		if x.tm.vals[r.obj].Load() != r.val {
			return false
		}
	}
	return true
}

func (x *txn) Write(obj int, v int64) error {
	if x.dead {
		return stm.ErrAborted
	}
	if x.tm.owner[obj].Load() != x.id {
		for !x.tm.owner[obj].CompareAndSwap(0, x.id) {
			if x.mgr.Conflict(nil) != cm.Wait {
				x.rollback()
				return stm.ErrAborted
			}
			x.mgr.Backoff()
		}
		x.mgr.Progress()
		x.mgr.Opened()
		x.owned = append(x.owned, obj)
		if x.acqVal == nil {
			x.acqVal = make(map[int]int64)
		}
		x.acqVal[obj] = x.tm.vals[obj].Load()
	}
	x.undo = append(x.undo, undoEntry{obj: obj, old: x.tm.vals[obj].Load()})
	x.tm.vals[obj].Store(v) // encounter-time, in place
	return nil
}

func (x *txn) Commit() error {
	if x.dead {
		return stm.ErrAborted
	}
	if x.tm.validate && !x.valid() {
		x.rollback()
		return stm.ErrAborted
	}
	x.dead = true
	for _, o := range x.owned {
		x.tm.owner[o].Store(0)
	}
	return nil
}

func (x *txn) Abort() {
	if x.dead {
		return
	}
	x.rollback()
}

// Fork implements stm.Forkable: the serial counter, every owner serial
// and value, the manager source, and per live transaction its serial,
// owned objects and their acquisition values, undo and read logs, and
// manager.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		d = New(len(t.vals), WithPolicy(t.policy))
		d.validate = t.validate
	}
	d.nextID.Store(t.nextID.Load())
	for i := range t.vals {
		d.owner[i].Store(t.owner[i].Load())
		d.vals[i].Store(t.vals[i].Load())
	}
	t.src.CopyTo(d.src)
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
		y.id = x.id
		y.owned = append(y.owned[:0], x.owned...)
		clear(y.acqVal)
		for o, v := range x.acqVal {
			if y.acqVal == nil {
				y.acqVal = make(map[int]int64)
			}
			y.acqVal[o] = v
		}
		y.undo = append(y.undo[:0], x.undo...)
		y.rset = append(y.rset[:0], x.rset...)
		x.mgr.CopyTo(&y.mgr)
		y.dead = x.dead
		out[i] = y
	}
	return d
}

// rollback undoes in-place writes in reverse order and releases ownership.
func (x *txn) rollback() {
	x.dead = true
	for i := len(x.undo) - 1; i >= 0; i-- {
		x.tm.vals[x.undo[i].obj].Store(x.undo[i].old)
	}
	for _, o := range x.owned {
		x.tm.owner[o].Store(0)
	}
}
