// Package norec implements NOrec (Dalessandro, Spear and Scott, PPoPP
// 2010): a deferred-update STM with no ownership records — a single global
// sequence lock plus value-based read validation.
//
// The global counter is even when no writer is committing. Readers snapshot
// the counter, read values directly, and re-validate their whole read log
// (by value) whenever the counter moves; writers serialize on the counter
// (odd = locked), re-validate, write back, and release. Like TL2, NOrec is
// deferred-update by construction.
//
// The hot path is allocation-free in steady state: read and write sets
// are slice-backed and reused, and transactions are pooled (sync.Pool),
// so a read-only transaction costs zero engine-side allocations. The
// sequence counter is cache-line padded away from the value array. A
// pooled handle stays safely inert after Commit/Abort until the engine
// begins another transaction that recycles it; using a dead handle
// beyond that point is a contract violation.
//
// Contention management is pluggable (New's policy): when validation
// fails, the manager chooses how long to back off before surrendering
// (the retried attempt then restarts from a fresh snapshot at the
// stm.Atomically layer), which damps abort storms on hot objects.
// cm.Passive reproduces the original fail-fast behavior.
package norec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
)

// TM is a NOrec software transactional memory.
type TM struct {
	seq    atomic.Int64 // even: unlocked; odd: a writer is committing
	_      [56]byte     // keep the hot counter off the value lines
	vals   []atomic.Int64
	policy cm.Policy
	src    *cm.Source
	pool   sync.Pool
}

var _ stm.Forkable = (*TM)(nil)

// New returns a NOrec TM over objects t-objects initialized to zero,
// whose conflicts the contention-management policy p arbitrates
// (cm.Passive fails fast).
func New(objects int, p cm.Policy) *TM {
	t := &TM{vals: make([]atomic.Int64, objects), policy: p, src: cm.NewSource(p)}
	t.pool.New = func() any { return new(txn) }
	return t
}

// Name implements stm.Engine.
func (t *TM) Name() string { return "norec" + t.policy.Suffix() }

// Begin implements stm.Engine.
func (t *TM) Begin() stm.Txn {
	x := t.pool.Get().(*txn)
	x.tm = t
	x.snap = t.stableSeq()
	x.rset = x.rset[:0]
	x.wobjs = x.wobjs[:0]
	x.wvals = x.wvals[:0]
	x.dead = false
	x.pooled = false
	t.src.Reset(&x.mgr)
	return x
}

// stableSeq waits for an even (unlocked) sequence value. Writers hold
// the counter only across a bounded commit, so the wait is bounded.
func (t *TM) stableSeq() int64 {
	for {
		s := t.seq.Load()
		if s&1 == 0 {
			return s
		}
		runtime.Gosched()
	}
}

type readEntry struct {
	obj int
	val int64
}

type txn struct {
	tm     *TM
	snap   int64
	rset   []readEntry
	wobjs  []int // write set, insertion order, unique
	wvals  []int64
	mgr    cm.Manager
	dead   bool
	pooled bool
}

var _ stm.Txn = (*txn)(nil)

func (x *txn) Read(obj int) (int64, error) {
	if x.dead {
		return 0, stm.ErrAborted
	}
	for i, o := range x.wobjs {
		if o == obj {
			return x.wvals[i], nil
		}
	}
	for {
		v := x.tm.vals[obj].Load()
		if x.tm.seq.Load() == x.snap {
			x.mgr.Opened()
			x.rset = append(x.rset, readEntry{obj: obj, val: v})
			return v, nil
		}
		// The counter moved: re-validate the read log against a fresh
		// stable snapshot, then retry the read.
		snap, ok := x.revalidate()
		if !ok {
			x.conflictBackoff()
			x.dead = true
			return 0, stm.ErrAborted
		}
		x.snap = snap
	}
}

// revalidate returns a stable sequence value under which every logged read
// still holds by value.
func (x *txn) revalidate() (int64, bool) {
	for {
		s := x.tm.stableSeq()
		for _, r := range x.rset {
			if x.tm.vals[r.obj].Load() != r.val {
				return 0, false
			}
		}
		if x.tm.seq.Load() == s {
			return s, true
		}
	}
}

// conflictBackoff consults the contention manager on a lost validation.
// The abort itself is unavoidable (the snapshot is stale); what the
// manager controls is the bounded backoff before the caller's retry
// loop launches the next attempt into the same hot spot.
func (x *txn) conflictBackoff() {
	if x.mgr.Conflict(nil) == cm.Wait {
		x.mgr.Backoff()
	}
}

func (x *txn) Write(obj int, v int64) error {
	if x.dead {
		return stm.ErrAborted
	}
	for i, o := range x.wobjs {
		if o == obj {
			x.wvals[i] = v
			return nil
		}
	}
	x.mgr.Opened()
	x.wobjs = append(x.wobjs, obj)
	x.wvals = append(x.wvals, v)
	return nil
}

func (x *txn) Commit() error {
	if x.dead {
		return stm.ErrAborted
	}
	x.dead = true
	if len(x.wobjs) == 0 {
		x.put()
		return nil // read-only: the log was valid at snap
	}
	// Acquire the sequence lock at a snapshot under which our reads are
	// valid.
	for !x.tm.seq.CompareAndSwap(x.snap, x.snap+1) {
		snap, ok := x.revalidate()
		if !ok {
			x.conflictBackoff()
			x.put()
			return stm.ErrAborted
		}
		x.snap = snap
	}
	for i, o := range x.wobjs {
		x.tm.vals[o].Store(x.wvals[i])
	}
	x.tm.seq.Store(x.snap + 2)
	x.put()
	return nil
}

func (x *txn) Abort() {
	if x.dead {
		if !x.pooled {
			x.put() // killed mid-flight; this Abort is the terminal call
		}
		return
	}
	x.dead = true
	x.put()
}

// Fork implements stm.Forkable: the sequence lock, the values, the
// manager source, and per live transaction its snapshot, read log, write
// set and manager. Copy targets not supplied come from dst's pool.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		d = New(len(t.vals), t.policy)
	}
	d.seq.Store(t.seq.Load())
	for i := range t.vals {
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
			y = d.pool.Get().(*txn)
		}
		y.tm = d
		y.snap = x.snap
		y.rset = append(y.rset[:0], x.rset...)
		y.wobjs = append(y.wobjs[:0], x.wobjs...)
		y.wvals = append(y.wvals[:0], x.wvals...)
		x.mgr.CopyTo(&y.mgr)
		y.dead = x.dead
		y.pooled = false
		out[i] = y
	}
	return d
}

// put recycles the transaction. Callers must not touch x afterwards.
func (x *txn) put() {
	x.pooled = true
	x.tm.pool.Put(x)
}
