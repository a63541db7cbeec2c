// Package pdur implements a parallel-certification deferred-update STM
// modeled on Parallel Deferred Update Replication (Marandi, Primi and
// Pedone; arXiv:1312.0742). PDUR's insight is that a single serialized
// certifier — the analogue of norec's one global sequence lock — is the
// scalability bottleneck of deferred update, and that certification
// itself can be partitioned: split the objects into partitions, give
// each partition its own certifier, and let transactions whose access
// sets touch disjoint partitions certify and commit in parallel.
//
// Here each partition carries its own sequence lock (cache-line padded,
// so certifiers scale without false sharing) and certification is
// norec-style value validation generalized to a partition vector:
//
//   - Objects map to partitions in contiguous blocks (obj*P/objects),
//     so workloads whose goroutines work disjoint object ranges land on
//     disjoint certifiers — the access-locality assumption PDUR makes
//     of its partitioned replicas.
//   - A reader maintains a vector of partition snapshots. Reads are
//     invisible; whenever any touched partition's sequence moves (or a
//     new partition joins the vector mid-transaction), the whole read
//     log is revalidated by value against a fresh stable vector, so
//     every read the transaction ever returns is consistent at one
//     vector time — the opacity argument is norec's, per partition.
//   - A writer certifies by locking only the partitions it writes (in
//     partition order), revalidating its reads, applying the deferred
//     writes, and bumping the locked sequences. Commits touching
//     disjoint partitions hold disjoint locks: they proceed in
//     parallel, which is exactly the serialized-certification fix
//     arXiv:1312.0742 argues for.
//
// Writes are buffered until commit and applied only under the
// partition locks, so no transaction ever observes a value written by
// a transaction that has not started committing: histories are
// deferred-update (du-opaque) by construction, like tl2's and norec's,
// and the engine registers as a deferred-update engine with the
// checker stack.
//
// All commit-side waits are bounded through the contention manager
// (default passive = fail fast), which both keeps the deterministic
// stepper's no-blocking rule intact and makes cross-partition
// validation deadlock-free: a certifier that cannot stabilize a read
// partition while holding write locks surrenders instead of spinning.
// Transactions are pooled and slice-backed like tl2's; read-only
// transactions cost zero engine-side allocations in steady state.
package pdur

import (
	"runtime"
	"sync"
	"sync/atomic"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
)

// partitions is the certifier count New gives a TM (clamped to the
// object count).
const partitions = 16

// part is one partition's certifier: a sequence lock (even = idle, odd
// = a commit in flight), padded to a cache line.
type part struct {
	seq atomic.Int64
	_   [56]byte
}

// TM is a parallel-certification deferred-update STM.
type TM struct {
	parts  []part
	vals   []atomic.Int64
	policy cm.Policy
	src    *cm.Source
	pool   sync.Pool
}

var _ stm.Forkable = (*TM)(nil)

// New returns a PDUR TM over objects t-objects initialized to zero, with
// partitions certifiers, whose conflicts the contention-management policy
// p arbitrates (cm.Passive fails fast).
func New(objects int, p cm.Policy) *TM { return newTM(objects, p, partitions) }

// newTM is New with np certifiers (clamped to [1, objects]).
func newTM(objects int, p cm.Policy, np int) *TM {
	t := &TM{
		parts:  make([]part, max(1, min(np, objects))),
		vals:   make([]atomic.Int64, objects),
		policy: p,
		src:    cm.NewSource(p),
	}
	t.pool.New = func() any { return new(txn) }
	return t
}

// Name implements stm.Engine.
func (t *TM) Name() string { return "pdur" + t.policy.Suffix() }

// pidx maps an object to its partition: contiguous blocks, so disjoint
// object ranges land on disjoint certifiers.
func (t *TM) pidx(obj int) int { return obj * len(t.parts) / len(t.vals) }

// Begin implements stm.Engine.
func (t *TM) Begin() stm.Txn {
	x := t.pool.Get().(*txn)
	x.tm = t
	if cap(x.snaps) < len(t.parts) {
		x.snaps = make([]int64, len(t.parts))
	}
	x.snaps = x.snaps[:len(t.parts)]
	for i := range x.snaps {
		x.snaps[i] = -1
	}
	x.rset = x.rset[:0]
	x.wobjs = x.wobjs[:0]
	x.wvals = x.wvals[:0]
	x.dead = false
	x.pooled = false
	t.src.Reset(&x.mgr)
	return x
}

type readEntry struct {
	obj int
	val int64
}

type txn struct {
	tm     *TM
	snaps  []int64 // per-partition snapshot vector; -1 = untouched
	rset   []readEntry
	wobjs  []int // write set, insertion order, unique
	wvals  []int64
	wparts []int   // commit scratch: write partitions, sorted unique
	wbase  []int64 // commit scratch: locked partitions' pre-lock seqs
	mgr    cm.Manager
	dead   bool
	pooled bool
}

var _ stm.Txn = (*txn)(nil)

// stableSeq waits for partition p to be idle (even sequence). Only
// called with no partition locks held: the writer holding p finishes
// its bounded commit, so the wait is bounded (and a no-op under the
// stepper, which never suspends a vthread mid-commit).
func (t *TM) stableSeq(p int) int64 {
	for {
		s := t.parts[p].seq.Load()
		if s&1 == 0 {
			return s
		}
		runtime.Gosched()
	}
}

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
	p := t.pidx(obj)
	for {
		if x.snaps[p] < 0 {
			// First touch of this partition: join it to the snapshot
			// vector, revalidating if any already-touched partition
			// moved meanwhile (the vector must stay jointly consistent).
			if !x.extend(p) {
				x.conflictBackoff()
				x.dead = true
				return 0, stm.ErrAborted
			}
		}
		v := t.vals[obj].Load()
		if t.parts[p].seq.Load() == x.snaps[p] {
			x.mgr.Opened()
			x.rset = append(x.rset, readEntry{obj: obj, val: v})
			return v, nil
		}
		// The partition's certifier moved: revalidate the whole log
		// against a fresh stable vector, then retry the read.
		if !x.revalidate() {
			x.conflictBackoff()
			x.dead = true
			return 0, stm.ErrAborted
		}
	}
}

// extend brings partition p into the snapshot vector. If any other
// touched partition moved since its snapshot, the whole log is
// revalidated so the vector stays jointly consistent.
func (x *txn) extend(p int) bool {
	x.snaps[p] = x.tm.stableSeq(p)
	for q := range x.snaps {
		if q != p && x.snaps[q] >= 0 && x.tm.parts[q].seq.Load() != x.snaps[q] {
			return x.revalidate()
		}
	}
	return true
}

// revalidate establishes a fresh jointly-stable snapshot vector under
// which every logged read still holds by value.
func (x *txn) revalidate() bool {
	t := x.tm
	for {
		for p := range x.snaps {
			if x.snaps[p] >= 0 {
				x.snaps[p] = t.stableSeq(p)
			}
		}
		for _, r := range x.rset {
			if t.vals[r.obj].Load() != r.val {
				return false
			}
		}
		stable := true
		for p := range x.snaps {
			if x.snaps[p] >= 0 && t.parts[p].seq.Load() != x.snaps[p] {
				stable = false
			}
		}
		if stable {
			return true
		}
	}
}

// conflictBackoff consults the contention manager on a lost
// validation: the abort is unavoidable, the manager only paces the
// caller's next attempt.
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
	t := x.tm
	if len(x.wobjs) == 0 {
		// Read-only: the log was valid at the final snapshot vector.
		x.dead = true
		x.put()
		return nil
	}
	// Collect the write partitions, sorted and deduplicated in place.
	x.wparts = x.wparts[:0]
	for _, o := range x.wobjs {
		p := t.pidx(o)
		i := len(x.wparts)
		for i > 0 && x.wparts[i-1] > p {
			i--
		}
		if i > 0 && x.wparts[i-1] == p {
			continue
		}
		x.wparts = append(x.wparts, 0)
		copy(x.wparts[i+1:], x.wparts[i:])
		x.wparts[i] = p
	}
	// Certify: lock the write partitions in partition order. Disjoint
	// write sets lock disjoint certifiers and proceed in parallel.
	x.wbase = x.wbase[:0]
	for _, p := range x.wparts {
		for {
			s := t.parts[p].seq.Load()
			if s&1 == 0 && t.parts[p].seq.CompareAndSwap(s, s+1) {
				x.mgr.Progress()
				x.wbase = append(x.wbase, s)
				break
			}
			if x.mgr.Conflict(nil) != cm.Wait {
				x.releaseParts()
				x.dead = true
				x.put()
				return stm.ErrAborted
			}
			x.mgr.Backoff()
		}
	}
	// Validate the read log under the write locks. Waits here are
	// bounded (we hold locks; unbounded spinning could deadlock two
	// certifiers validating across each other's partitions).
	if !x.validateUnderLocks() {
		x.releaseParts()
		x.conflictBackoff()
		x.dead = true
		x.put()
		return stm.ErrAborted
	}
	// Apply the deferred writes and publish: bump each locked
	// partition's certifier to the next even value.
	for i, o := range x.wobjs {
		t.vals[o].Store(x.wvals[i])
	}
	for i, p := range x.wparts {
		t.parts[p].seq.Store(x.wbase[i] + 2)
	}
	x.dead = true
	x.put()
	return nil
}

// validateUnderLocks re-checks the read log while the write partitions
// are locked. Reads in partitions we hold cannot move under us; reads
// in other partitions are checked norec-style (stable seq, values,
// seq unchanged), with every wait bounded through the manager.
func (x *txn) validateUnderLocks() bool {
	t := x.tm
	for {
		for p := range x.snaps {
			if x.snaps[p] < 0 || x.holdsPart(p) {
				continue
			}
			for {
				s := t.parts[p].seq.Load()
				if s&1 == 0 {
					x.snaps[p] = s
					break
				}
				if x.mgr.Conflict(nil) != cm.Wait {
					return false
				}
				x.mgr.Backoff()
			}
		}
		for _, r := range x.rset {
			if t.vals[r.obj].Load() != r.val {
				return false
			}
		}
		stable := true
		for p := range x.snaps {
			if x.snaps[p] >= 0 && !x.holdsPart(p) && t.parts[p].seq.Load() != x.snaps[p] {
				stable = false
			}
		}
		if stable {
			return true
		}
	}
}

// holdsPart reports whether p is one of our (sorted) locked write
// partitions.
func (x *txn) holdsPart(p int) bool {
	for _, h := range x.wparts[:len(x.wbase)] {
		if h == p {
			return true
		}
		if h > p {
			return false
		}
	}
	return false
}

// releaseParts unlocks the acquired write partitions, restoring their
// pre-lock sequences (no writes were applied).
func (x *txn) releaseParts() {
	for i := range x.wbase {
		x.tm.parts[x.wparts[i]].seq.Store(x.wbase[i])
	}
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

// Fork implements stm.Forkable: every certifier's sequence, the values,
// the manager source, and per live transaction its snapshot vector, read
// log, write set and manager. Copy targets not supplied come from dst's
// pool.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		d = newTM(len(t.vals), t.policy, len(t.parts))
	}
	for i := range t.parts {
		d.parts[i].seq.Store(t.parts[i].seq.Load())
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
		y.snaps = append(y.snaps[:0], x.snaps...)
		y.rset = append(y.rset[:0], x.rset...)
		y.wobjs = append(y.wobjs[:0], x.wobjs...)
		y.wvals = append(y.wvals[:0], x.wvals...)
		y.wparts, y.wbase = y.wparts[:0], y.wbase[:0] // commit scratch
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
