// Package tl2 implements Transactional Locking II (Dice, Shalev and
// Shavit, DISC 2006): a deferred-update STM with a global version clock
// and per-object versioned write locks.
//
// Reads validate against the transaction's read version (the clock value
// at begin) and are re-checked for stability; writes are buffered and
// written back at commit under per-object locks, after the read set is
// validated against the (incremented) clock. The engine therefore never
// lets a transaction observe a value written by a transaction that has not
// started committing — the deferred-update semantics the paper formalizes
// as du-opacity.
//
// The hot path is tuned for the scaling benchmarks (stmbench scale):
//
//   - The lock table is striped and cache-line padded: each versioned
//     write-lock lives alone on its line, so two goroutines committing
//     to different objects do not false-share a line of lock words. Up
//     to maxStripes the mapping is one stripe per object (identical
//     conflict behavior to a per-object table); past that objects share
//     stripes, which can only add spurious aborts, never unsafety.
//   - Read and write sets are slice-backed and reused: no map, no
//     sort.Ints in commit (the write-stripe list is insertion-sorted in
//     place into a pooled scratch slice).
//   - Transactions are pooled (sync.Pool), so a read-only transaction
//     costs zero engine-side allocations in steady state. A pooled
//     handle stays safely inert after Commit/Abort until the engine
//     begins another transaction that recycles it; using a dead handle
//     beyond that point is a contract violation (stm.Txn handles are
//     dead after their terminal call).
//
// Contention management is pluggable (New's policy): on a locked stripe —
// during a read or while acquiring commit locks — the transaction asks
// its cm.Manager whether to back off and retry or to abort. cm.Passive
// reproduces the original fail-fast behavior.
package tl2

import (
	"sync"
	"sync/atomic"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
)

// lock words: version << 1 | lockedBit.
const lockedBit = 1

// maxStripes caps the padded lock table (1<<14 stripes = 1 MiB); beyond
// it objects hash-share stripes.
const maxStripes = 1 << 14

// stripe is one versioned write-lock, padded to a cache line so
// neighboring locks never share one.
type stripe struct {
	lock atomic.Int64
	_    [56]byte
}

// TM is a TL2 software transactional memory.
type TM struct {
	clock   atomic.Int64
	_       [56]byte // keep the hot clock off the stripe and value lines
	stripes []stripe // striped versioned write-locks (len is a power of two)
	mask    int
	vals    []atomic.Int64
	policy  cm.Policy
	src     *cm.Source
	pool    sync.Pool
}

var _ stm.Forkable = (*TM)(nil)

// New returns a TL2 TM over objects t-objects initialized to zero, whose
// conflicts the contention-management policy p arbitrates (cm.Passive
// fails fast).
func New(objects int, p cm.Policy) *TM {
	n := 1
	for n < objects && n < maxStripes {
		n <<= 1
	}
	t := &TM{
		stripes: make([]stripe, n),
		mask:    n - 1,
		vals:    make([]atomic.Int64, objects),
		policy:  p,
		src:     cm.NewSource(p),
	}
	t.pool.New = func() any { return new(txn) }
	return t
}

// Name implements stm.Engine.
func (t *TM) Name() string { return "tl2" + t.policy.Suffix() }

// Begin implements stm.Engine.
func (t *TM) Begin() stm.Txn {
	x := t.pool.Get().(*txn)
	x.tm = t
	x.rv = t.clock.Load()
	x.rset = x.rset[:0]
	x.wobjs = x.wobjs[:0]
	x.wvals = x.wvals[:0]
	x.dead = false
	x.pooled = false
	t.src.Reset(&x.mgr)
	return x
}

type txn struct {
	tm     *TM
	rv     int64 // read version
	rset   []int // objects read (duplicates allowed)
	wobjs  []int // write set, insertion order, unique
	wvals  []int64
	sset   []int // commit scratch: write stripes, sorted unique
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
	t := x.tm
	lk := &t.stripes[obj&t.mask].lock
	for {
		l1 := lk.Load()
		if l1&lockedBit != 0 {
			// A concurrent commit holds this stripe: wait it out if the
			// policy allows, else fail fast (the seed behavior).
			if x.mgr.Conflict(nil) != cm.Wait {
				x.dead = true
				return 0, stm.ErrAborted
			}
			x.mgr.Backoff()
			continue
		}
		if l1>>1 > x.rv {
			// The object moved past our snapshot; waiting cannot help.
			x.dead = true
			return 0, stm.ErrAborted
		}
		v := t.vals[obj].Load()
		if lk.Load() != l1 {
			// Raced with a commit between the two lock reads.
			if x.mgr.Conflict(nil) != cm.Wait {
				x.dead = true
				return 0, stm.ErrAborted
			}
			x.mgr.Backoff()
			continue
		}
		x.mgr.Progress()
		x.mgr.Opened()
		x.rset = append(x.rset, obj)
		return v, nil
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
	t := x.tm
	if len(x.wobjs) == 0 {
		// Read-only transactions commit at their read version: every read
		// was consistent as of rv.
		x.dead = true
		x.put()
		return nil
	}
	// Collect the write stripes, sorted and deduplicated in place (no
	// sort.Ints allocation; write sets are small, insertion sort wins).
	x.sset = x.sset[:0]
	for _, o := range x.wobjs {
		s := o & t.mask
		i := len(x.sset)
		for i > 0 && x.sset[i-1] > s {
			i--
		}
		if i > 0 && x.sset[i-1] == s {
			continue
		}
		x.sset = append(x.sset, 0)
		copy(x.sset[i+1:], x.sset[i:])
		x.sset[i] = s
	}
	// Lock the write stripes in stripe order (deadlock freedom); the
	// contention manager decides whether a held stripe is waited out.
	locked := 0
	for _, s := range x.sset {
		lk := &t.stripes[s].lock
		for {
			l := lk.Load()
			if l&lockedBit == 0 && lk.CompareAndSwap(l, l|lockedBit) {
				x.mgr.Progress()
				break
			}
			if x.mgr.Conflict(nil) != cm.Wait {
				x.releaseStripes(locked)
				x.dead = true
				x.put()
				return stm.ErrAborted
			}
			x.mgr.Backoff()
		}
		locked++
	}
	// Increment the global clock; wv is this commit's version.
	wv := t.clock.Add(1)
	// Validate the read set (unless no concurrent commit happened).
	if wv != x.rv+1 {
		for _, ro := range x.rset {
			s := ro & t.mask
			l := t.stripes[s].lock.Load()
			if x.holdsStripe(s) {
				l &^= lockedBit // we hold this lock
			} else if l&lockedBit != 0 {
				x.releaseStripes(locked)
				x.dead = true
				x.put()
				return stm.ErrAborted
			}
			if l>>1 > x.rv {
				x.releaseStripes(locked)
				x.dead = true
				x.put()
				return stm.ErrAborted
			}
		}
	}
	// Write back and release with the new version.
	for i, o := range x.wobjs {
		t.vals[o].Store(x.wvals[i])
	}
	wl := wv << 1
	for _, s := range x.sset {
		t.stripes[s].lock.Store(wl)
	}
	x.dead = true
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

// Fork implements stm.Forkable: the clock, every lock word and value, the
// manager source, and per live transaction its read version, read and
// write sets and manager. Copy targets not supplied come from dst's pool.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		d = New(len(t.vals), t.policy)
	}
	d.clock.Store(t.clock.Load())
	for i := range t.stripes {
		d.stripes[i].lock.Store(t.stripes[i].lock.Load())
	}
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
		y.rv = x.rv
		y.rset = append(y.rset[:0], x.rset...)
		y.wobjs = append(y.wobjs[:0], x.wobjs...)
		y.wvals = append(y.wvals[:0], x.wvals...)
		y.sset = y.sset[:0] // commit scratch, rebuilt by every Commit
		x.mgr.CopyTo(&y.mgr)
		y.dead = x.dead
		y.pooled = false
		out[i] = y
	}
	return d
}

// releaseStripes unlocks the first n acquired write stripes, restoring
// their pre-lock versions.
func (x *txn) releaseStripes(n int) {
	for _, s := range x.sset[:n] {
		lk := &x.tm.stripes[s].lock
		lk.Store(lk.Load() &^ lockedBit)
	}
}

// holdsStripe reports whether s is one of our (sorted) write stripes.
func (x *txn) holdsStripe(s int) bool {
	for _, h := range x.sset {
		if h == s {
			return true
		}
		if h > s {
			return false
		}
	}
	return false
}

// put recycles the transaction. Callers must not touch x afterwards.
func (x *txn) put() {
	x.pooled = true
	x.tm.pool.Put(x)
}
