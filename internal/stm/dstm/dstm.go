// Package dstm implements a DSTM-style obstruction-free STM (Herlihy,
// Luchangco, Moir, Scherer, PODC 2003): per-object locators carrying the
// owning transaction's descriptor plus old and new values, acquired by
// CAS at first write, with invisible validated reads and a pluggable
// contention manager.
//
// A transaction's writes live in the new-value slot of the locators it
// owns and become visible atomically when its descriptor's status flips to
// committed — i.e. during tryC. Readers of an object owned by an active
// transaction see the old value, so no transaction ever reads from a
// transaction that has not started committing: recorded histories are
// du-opaque, like TL2's and NOrec's.
//
// Commit is three steps: the descriptor goes from active to committing,
// the read set is validated, and the descriptor goes to committed. A
// committer aborts itself if an object it read is owned by another
// committing transaction. With validation and the commit point apart but
// no such rule, two transactions that each read what the other writes
// could both validate before either committed, and both commit (write
// skew). Writers treat a committing owner as an active one, so the
// engine stays obstruction-free.
//
// Without a contention-management policy, a writer that finds an object
// owned by another live transaction kills the owner. WithPolicy switches
// conflict arbitration to the shared cm layer (internal/stm/cm), where
// the policies every other engine uses — backoff, karma, greedy —
// arbitrate with full knowledge of both sides' priorities: each
// transaction descriptor carries its cm.Manager, so karma can compare
// work done and greedy can compare ages before deciding to wait, kill
// the owner, or surrender. dstm is the only engine that can honor
// cm.AbortEnemy (its descriptors make the opponent killable by CAS).
package dstm

import (
	"sync/atomic"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
)

// status values of a transaction descriptor.
const (
	active int32 = iota
	committing
	committed
	aborted
)

// desc is a transaction descriptor; locators point at it. mgr is the
// transaction's contention manager (cm mode only): opponents that find
// the descriptor through a locator read its priority to arbitrate.
type desc struct {
	status atomic.Int32
	mgr    cm.Manager
}

// locator binds an object version to its owning transaction: if the owner
// committed the current value is newVal, otherwise oldVal. Locators are
// immutable except for newVal, which only the active owner writes (and
// readers only access after observing the owner committed, which the
// status load orders).
type locator struct {
	owner  *desc
	oldVal int64
	newVal int64
}

// TM is a DSTM-style software transactional memory.
type TM struct {
	cmPolicy cm.Policy
	useCM    bool
	src      *cm.Source
	objs     []atomic.Pointer[locator]
}

var _ stm.Forkable = (*TM)(nil)

// Option configures the engine.
type Option func(*TM)

// WithPolicy switches conflict arbitration to the shared cm layer with
// the given policy. Under cm.Passive a writer aborts itself at a
// conflict.
func WithPolicy(p cm.Policy) Option {
	return func(t *TM) {
		t.useCM = true
		t.cmPolicy = p
	}
}

// New returns a DSTM TM over objects t-objects initialized to zero.
func New(objects int, opts ...Option) *TM {
	t := &TM{objs: make([]atomic.Pointer[locator], objects)}
	for _, o := range opts {
		o(t)
	}
	if t.useCM {
		t.src = cm.NewSource(t.cmPolicy)
	}
	root := &desc{}
	root.status.Store(committed)
	for i := range t.objs {
		t.objs[i].Store(&locator{owner: root})
	}
	return t
}

// Name implements stm.Engine.
func (t *TM) Name() string {
	if t.useCM && t.cmPolicy != cm.Passive {
		return "dstm+" + t.cmPolicy.String()
	}
	return "dstm"
}

// Objects implements stm.Engine.
func (t *TM) Objects() int { return len(t.objs) }

// Begin implements stm.Engine.
func (t *TM) Begin() stm.Txn {
	x := &txn{tm: t, self: &desc{}}
	t.src.Reset(&x.self.mgr)
	return x
}

type readEntry struct {
	obj int
	val int64
}

type txn struct {
	tm    *TM
	self  *desc
	rset  []readEntry
	wrote map[int]*locator // locators this transaction owns
}

var _ stm.Txn = (*txn)(nil)

// current resolves a locator to the object's current committed value.
func current(l *locator) int64 {
	if l.owner.status.Load() == committed {
		return l.newVal
	}
	return l.oldVal
}

func (x *txn) alive() bool { return x.self.status.Load() == active }

func (x *txn) Read(obj int) (int64, error) {
	if !x.alive() {
		return 0, stm.ErrAborted
	}
	if l, ok := x.wrote[obj]; ok {
		return l.newVal, nil // own speculative value
	}
	l := x.tm.objs[obj].Load()
	v := current(l)
	x.self.mgr.Opened()
	x.rset = append(x.rset, readEntry{obj: obj, val: v})
	// Invisible reads demand validation on every access to preserve
	// opacity (the DSTM paper's per-open validation).
	if !x.validate(active) {
		x.Abort()
		return 0, stm.ErrAborted
	}
	return v, nil
}

// validate re-checks every logged read against the objects' current
// values and confirms the transaction's status is still want: active
// while it runs, committing inside Commit. At commit, a read object
// owned by another committing transaction fails the check too.
func (x *txn) validate(want int32) bool {
	for _, r := range x.rset {
		l := x.tm.objs[r.obj].Load()
		if owned, ok := x.wrote[r.obj]; ok && l == owned {
			// We own it: compare against the pre-acquisition value.
			if l.oldVal != r.val {
				return false
			}
			continue
		}
		// One status load decides both the value and the committing
		// test, so an owner that commits in between cannot slip past.
		st, v := l.owner.status.Load(), l.oldVal
		if st == committed {
			v = l.newVal
		}
		if v != r.val || (want == committing && st == committing) {
			return false
		}
	}
	return x.self.status.Load() == want
}

func (x *txn) Write(obj int, v int64) error {
	if !x.alive() {
		return stm.ErrAborted
	}
	if l, ok := x.wrote[obj]; ok {
		l.newVal = v // we own the locator: update the speculative slot
		return nil
	}
	for {
		if !x.alive() {
			return stm.ErrAborted
		}
		old := x.tm.objs[obj].Load()
		if st := old.owner.status.Load(); (st == active || st == committing) && old.owner != x.self {
			if !x.manageConflict(old.owner) {
				x.Abort()
				return stm.ErrAborted
			}
			continue // the owner is no longer active; re-read the locator
		}
		cur := current(old)
		nl := &locator{owner: x.self, oldVal: cur, newVal: v}
		if x.tm.objs[obj].CompareAndSwap(old, nl) {
			x.self.mgr.Progress()
			x.self.mgr.Opened()
			if x.wrote == nil {
				x.wrote = make(map[int]*locator)
			}
			x.wrote[obj] = nl
			// Acquiring may have raced with a conflicting commit; the
			// read set must still hold.
			if !x.validate(active) {
				x.Abort()
				return stm.ErrAborted
			}
			return nil
		}
	}
}

// manageConflict applies the contention policy against an active owner:
// without a cm policy the owner is killed. It returns false if the caller
// must abort itself.
func (x *txn) manageConflict(owner *desc) bool {
	if !x.tm.useCM {
		kill(owner)
		return true
	}
	switch x.self.mgr.Conflict(&owner.mgr) {
	case cm.AbortEnemy:
		kill(owner)
		return true
	case cm.Wait:
		x.self.mgr.Backoff()
		return true
	default:
		return false
	}
}

// kill aborts an owner that is active or committing; one that reached
// committed or aborted first stays as it is.
func kill(owner *desc) {
	for {
		st := owner.status.Load()
		if st != active && st != committing || owner.status.CompareAndSwap(st, aborted) {
			return
		}
	}
}

func (x *txn) Commit() error {
	if !x.self.status.CompareAndSwap(active, committing) {
		return stm.ErrAborted
	}
	if !x.validate(committing) {
		x.self.status.CompareAndSwap(committing, aborted)
		return stm.ErrAborted
	}
	// The commit point: all owned locators' new values become current
	// atomically. CAS can fail if a contention manager aborted us.
	if !x.self.status.CompareAndSwap(committing, committed) {
		return stm.ErrAborted
	}
	return nil
}

func (x *txn) Abort() {
	x.self.status.CompareAndSwap(active, aborted)
}

// Fork implements stm.Forkable. A descriptor that has committed or
// aborted never changes again, and neither do the locators it owns, so
// dst shares them; each still-active descriptor is copied once, with its
// manager, and each locator it owns is copied once and points at the
// copy — in dst's object table and in the copied transaction's write set
// alike.
func (t *TM) Fork(dst stm.Engine, txns, out []stm.Txn) stm.Engine {
	d, _ := dst.(*TM)
	if d == nil {
		var opts []Option
		if t.useCM {
			opts = append(opts, WithPolicy(t.cmPolicy))
		}
		d = New(len(t.objs), opts...)
	}
	if t.src != nil {
		t.src.CopyTo(d.src)
	}
	descs := make(map[*desc]*desc)
	locs := make(map[*locator]*locator)
	copyDesc := func(o *desc) *desc {
		if o.status.Load() != active {
			return o
		}
		n := descs[o]
		if n == nil {
			n = &desc{}
			n.status.Store(active)
			o.mgr.CopyTo(&n.mgr)
			descs[o] = n
		}
		return n
	}
	copyLoc := func(l *locator) *locator {
		if l.owner.status.Load() != active {
			return l
		}
		n := locs[l]
		if n == nil {
			n = &locator{owner: copyDesc(l.owner), oldVal: l.oldVal, newVal: l.newVal}
			locs[l] = n
		}
		return n
	}
	for i := range t.objs {
		d.objs[i].Store(copyLoc(t.objs[i].Load()))
	}
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
		y.self = copyDesc(x.self)
		y.rset = append(y.rset[:0], x.rset...)
		clear(y.wrote)
		for o, l := range x.wrote {
			if y.wrote == nil {
				y.wrote = make(map[int]*locator)
			}
			y.wrote[o] = copyLoc(l)
		}
		out[i] = y
	}
	return d
}
