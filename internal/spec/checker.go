package spec

import (
	"fmt"
	"math/bits"
	"sync"

	"duopacity/internal/fpset"
	"duopacity/internal/history"
)

// txnRole describes how a transaction may end in a serialization.
type txnRole uint8

const (
	roleMustCommit txnRole = iota + 1 // t-committed in H
	roleMustAbort                     // t-aborted, incomplete op, or complete-not-t-complete
	roleEither                        // commit-pending: the completion chooses
)

// searchMode tunes which conditions the engine enforces.
type searchMode struct {
	// local enforces the deferred-update condition: every external read
	// must be legal in its local serialization w.r.t. H and S
	// (Definition 3, condition 3).
	local bool
	// realTime enforces Definition 3 condition 2.
	realTime bool
	// committedOnly restricts the serialization to committed transactions
	// (serializability baselines).
	committedOnly bool
	// extraEdges adds ordering constraints (TMS2 / RCO): an edge (a, b)
	// requires a <_S b.
	extraEdges [][2]history.TxnID
}

// stackEntry records a committed transaction's write on a per-object stack,
// in serialization order. The stacks live in one slab (engine.stackSlab)
// with per-object offsets, sized from the per-object writer counts.
type stackEntry struct {
	txn     int32 // engine transaction index
	tryCInv int32 // index in H of the writer's tryC invocation (>= 0)
	val     history.Value
}

// engine is the exhaustive serialization search shared by all criteria.
//
// It is the allocation-free rewrite of the reference engine, which
// reference_test.go freezes for the differential tests: the per-check
// analysis comes from the history's cached Indexed view, the memo table
// stores 64-bit Zobrist-style fingerprints maintained
// incrementally by pushTxn/popTxn instead of built strings, candidate
// selection iterates transaction bitmasks, and the scratch state is
// reused: a batch check draws an engine from a pool (prepareEngine), and
// each monitor decider holds one that its rewinds re-prepare in place
// (prepare, decider.places).
//
// Memo hits are accepted on the 64-bit fingerprint alone: a collision
// between two distinct (placed set, stacks) states would prune a live
// state and could refute a satisfiable history. The probability is
// bounded by states²/2⁶⁴ per check — about 10⁻⁷ at the default
// 2-million-node certification limit, and far smaller for the
// ~thousand-node checks that dominate in practice — which the exactness
// claim of this package accepts as negligible; the string-keyed reference
// engine has no such caveat and remains the arbiter in the differential
// tests.
type engine struct {
	h    *history.History
	ix   *history.Indexed
	mode searchMode
	opts options

	n     int   // participating transactions
	words int   // word count of the engine bitsets: bitsWords(n)
	gidx  []int // engine index -> dense index in ix
	// engIdx is the inverse of gidx (-1: not participating), filled only
	// when the two index spaces differ.
	engIdx []int32
	txs    []*history.IndexedTxn // per engine txn, aliasing ix.Txns
	role   []txnRole
	// pred holds the required predecessors per engine txn. Rows may alias
	// ix.RTPred (and then are ragged: row i spans bitsWords(i) words).
	pred []history.Bits
	// predBuf/predSlab are the engine-owned rows behind pred whenever it
	// must differ from the shared real-time sets (extra edges,
	// committedOnly compaction, no real-time order): n rows of `words`
	// words carved out of one slab.
	predBuf  []history.Bits
	predSlab []uint64

	all     history.Bits // set of all engine transactions
	noWrite history.Bits // engine transactions that install no writes
	// dead is the greedy phase's scratch set of transactions whose reads
	// failed against the phase's constant stacks. One buffer suffices:
	// greedyPlace never recurses, so its lifetime ends before search
	// descends.
	dead history.Bits

	// Per-object committed-writer stacks in one slab.
	stackOff  []int32
	stackLen  []int32
	stackSlab []stackEntry

	// Search state.
	placed      history.Bits
	placedCount int
	fp          uint64 // incremental fingerprint of (placed, stacks)
	order       []int32
	commits     []bool
	memo        fpset.Set
	nodes       int

	// Cancellation state (nil unless WithContext was given): the context's
	// Done channel, polled every ctxPollMask+1 nodes in search().
	ctxDone   <-chan struct{}
	cancelled bool // bailed because the context was cancelled

	// Enumeration state (nil unless enumerating).
	collect func(*history.Seq) bool

	// The witness emit found: dense indexes and commit decisions in
	// serialization order.
	orderBuf  []int
	commitBuf []bool

	reason string
	bailed bool // node limit reached
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// grow returns a slice of length n, reusing s's backing array when it is
// large enough. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// bitsWords returns the number of bitset words needed for n bits.
func bitsWords(n int) int { return (n + 63) >> 6 }

// growBits returns a zeroed bitset of the given word count, reusing b's
// backing array when it is large enough.
func growBits(b history.Bits, words int) history.Bits {
	b = grow(b, words)
	for i := range b {
		b[i] = 0
	}
	return b
}

// release returns the engine's scratch to the pool, dropping references
// into the checked history.
func (e *engine) release() {
	e.h, e.ix = nil, nil
	e.mode = searchMode{}
	e.pred = nil // may alias ix.RTPred; predBuf stays pooled
	e.ctxDone, e.cancelled = nil, false
	e.collect = nil
	for i := range e.txs {
		e.txs[i] = nil
	}
	enginePool.Put(e)
}

// prepareEngine draws an engine from the pool and prepares it for h in
// the given mode. It returns the reason of a read inconsistent with the
// reader's own write, releasing the engine.
func prepareEngine(h *history.History, mode searchMode, opts options) (*engine, string) {
	e := enginePool.Get().(*engine)
	if reason := e.prepare(h, mode, opts); reason != "" {
		e.release()
		return nil, reason
	}
	return e, ""
}

// prepare analyzes h for the given mode using the cached indexed view, in
// the engine's own storage whatever history it was prepared for before:
// the roles, predecessor rows and stacks are set up and nothing is placed,
// which is all placeOrder needs; a search also wants staticReject and a
// reset memo (decide). It returns the reason of a read inconsistent with
// the reader's own write, which no serialization can place.
func (e *engine) prepare(h *history.History, mode searchMode, opts options) string {
	ix := h.Index()
	e.h, e.ix, e.mode, e.opts = h, ix, mode, opts
	e.nodes = 0
	e.reason, e.bailed = "", false
	e.collect = nil
	e.ctxDone, e.cancelled = nil, false
	if opts.ctx != nil {
		e.ctxDone = opts.ctx.Done()
	}

	// Participating transactions, in first-appearance order.
	N := ix.NumTxns()
	e.gidx = grow(e.gidx, 0)
	for gi := 0; gi < N; gi++ {
		it := &ix.Txns[gi]
		if mode.committedOnly && !(it.Committed || it.CommitPending) {
			continue
		}
		e.gidx = append(e.gidx, gi)
	}
	n := len(e.gidx)
	e.n = n
	e.words = bitsWords(n)
	e.all = growBits(e.all, e.words)
	for w := range e.all {
		e.all[w] = ^uint64(0)
	}
	if r := uint(n & 63); r != 0 {
		e.all[e.words-1] = (uint64(1) << r) - 1
	}
	e.placed = grow(e.placed, e.words)
	e.dead = growBits(e.dead, e.words)

	e.txs = grow(e.txs, n)
	e.role = grow(e.role, n)
	e.noWrite = growBits(e.noWrite, e.words)
	for i, gi := range e.gidx {
		it := &ix.Txns[gi]
		e.txs[i] = it
		switch {
		case it.Committed:
			e.role[i] = roleMustCommit
		case it.CommitPending:
			e.role[i] = roleEither
		default:
			e.role[i] = roleMustAbort
		}
		if len(it.Writes) == 0 {
			e.noWrite.Set(i)
		}
	}
	// A read that misses the transaction's own latest preceding write is
	// inconsistent in every serialization (checked in the reference engine
	// during analysis, so it precedes the static-reject reasons).
	for _, it := range e.txs[:n] {
		if it.BadReadOp >= 0 {
			op := it.Info.Ops[it.BadReadOp]
			return fmt.Sprintf(
				"T%d: %v returned %d but the transaction's own latest write to %s is %d",
				it.Info.ID, op, op.Val, op.Obj, it.BadReadWant)
		}
	}

	identity := n == N
	if !identity {
		e.engIdx = grow(e.engIdx, N)
		for gi := range e.engIdx {
			e.engIdx[gi] = -1
		}
		for i, gi := range e.gidx {
			e.engIdx[gi] = int32(i)
		}
	}

	// Ordering constraints. The common fast path — every transaction
	// participates, real-time order, no extra edges — aliases the index's
	// precomputed masks; every other combination fills the engine's buffer.
	if mode.realTime && identity && len(mode.extraEdges) == 0 {
		e.pred = ix.RTPred
	} else {
		e.predSlab = grow(e.predSlab, n*e.words)
		for i := range e.predSlab {
			e.predSlab[i] = 0
		}
		e.predBuf = grow(e.predBuf, n)
		for i := 0; i < n; i++ {
			e.predBuf[i] = history.Bits(e.predSlab[i*e.words : (i+1)*e.words])
		}
		if mode.realTime {
			// The index's real-time rows, re-indexed to the participants
			// when they are a subset.
			for bi, gb := range e.gidx {
				if identity {
					copy(e.predBuf[bi], ix.RTPred[gb])
					continue
				}
				for w, m := range ix.RTPred[gb] {
					for ; m != 0; m &= m - 1 {
						if ai := e.engIdx[w<<6+bits.TrailingZeros64(m)]; ai >= 0 {
							e.predBuf[bi].Set(int(ai))
						}
					}
				}
			}
		}
		for _, edge := range mode.extraEdges {
			ai := e.engineIndexOf(edge[0])
			bi := e.engineIndexOf(edge[1])
			if ai >= 0 && bi >= 0 {
				e.predBuf[bi].Set(ai)
			}
		}
		e.pred = e.predBuf
	}

	// Per-object committed-writer stacks: offsets sized from the number of
	// commit-capable writers per object.
	numObjs := ix.NumObjs()
	e.stackOff = grow(e.stackOff, numObjs)
	e.stackLen = grow(e.stackLen, numObjs)
	for o := 0; o < numObjs; o++ {
		e.stackOff[o] = 0
	}
	for i, it := range e.txs[:n] {
		if e.role[i] == roleMustAbort {
			continue
		}
		for _, w := range it.Writes {
			e.stackOff[w.Obj]++ // count pass
		}
	}
	total := int32(0)
	for o := 0; o < numObjs; o++ {
		c := e.stackOff[o]
		e.stackOff[o] = total
		total += c
	}
	e.stackSlab = grow(e.stackSlab, int(total))
	e.clear()
	return ""
}

// clear empties the engine's serialization: nothing placed, every stack
// empty, the fingerprint of the empty state.
func (e *engine) clear() {
	for w := range e.placed {
		e.placed[w] = 0
	}
	for o := range e.stackLen {
		e.stackLen[o] = 0
	}
	e.order, e.commits = e.order[:0], e.commits[:0]
	e.placedCount, e.fp = 0, 0
}

// engineIndexOf maps a transaction identifier to its engine index, or -1.
func (e *engine) engineIndexOf(k history.TxnID) int {
	gi := e.ix.TxnIndexOf(k)
	if gi < 0 {
		return -1
	}
	if e.n == e.ix.NumTxns() {
		return gi
	}
	return int(e.engIdx[gi])
}

// staticReject performs order-independent feasibility checks so that common
// violations are refuted without search, with a precise reason. It matches
// the reference engine's messages exactly but scans the indexed writer
// summaries instead of building a (object, value) -> writers map.
func (e *engine) staticReject() string {
	// When every transaction participates, the engine index space matches
	// the index's, and the per-object writer sets narrow the candidate
	// scan to the transactions that actually write the read's object.
	useWriterMasks := e.n == e.ix.NumTxns()
	for i, it := range e.txs[:e.n] {
		for _, r := range it.Reads {
			if r.Val == history.InitValue {
				continue // T_0 is always a legal source
			}
			found := false
			foundLocal := false
			if useWriterMasks {
				row := e.ix.Writers[r.Obj]
				for w := 0; w < len(row) && !foundLocal; w++ {
					m := row[w]
					if w == i>>6 {
						m &^= uint64(1) << uint(i&63)
					}
					for ; m != 0 && !foundLocal; m &= m - 1 {
						c := w<<6 + bits.TrailingZeros64(m)
						if e.role[c] == roleMustAbort {
							continue
						}
						ct := e.txs[c]
						for _, wr := range ct.Writes {
							if wr.Obj != r.Obj || wr.Val != r.Val {
								continue
							}
							found = true
							if ct.TryCInv >= 0 && ct.TryCInv < r.ResIdx {
								foundLocal = true
							}
							break
						}
					}
				}
			} else {
				for c, ct := range e.txs[:e.n] {
					if c == i || e.role[c] == roleMustAbort {
						continue
					}
					for _, w := range ct.Writes {
						if w.Obj != r.Obj || w.Val != r.Val {
							continue
						}
						found = true
						if ct.TryCInv >= 0 && ct.TryCInv < r.ResIdx {
							foundLocal = true
						}
						break
					}
					if foundLocal {
						break
					}
				}
			}
			if !found {
				return fmt.Sprintf("T%d: %v has no possible source: no committable transaction writes %s=%d",
					it.Info.ID, r.Op, e.ix.Objs[r.Obj], r.Val)
			}
			if e.mode.local && !foundLocal {
				return fmt.Sprintf(
					"T%d: %v violates deferred update: no transaction writing %s=%d invoked tryC before the read's response",
					it.Info.ID, r.Op, e.ix.Objs[r.Obj], r.Val)
			}
		}
	}
	return ""
}

// placeOrder places an offered serialization — dense indexes of e.ix in
// order, and the commit decision per position — under the engine's own
// checks: each participating transaction in turn must take a decision its
// role allows, find its required predecessors (real time, extra edges)
// placed, and read legally, with du-opacity's local clause when the mode
// has it (pushTxn). Transactions outside the engine (the serializability
// baselines order only committed and commit-pending ones) are skipped. It
// reports whether every engine transaction placed; if so the placed order
// is in orderBuf and commitBuf as emit leaves it. The engine is left
// empty, as prepare leaves it.
func (e *engine) placeOrder(order []int, commit []bool) bool {
	compact := e.n != e.ix.NumTxns()
	ok := true
	for pos, gi := range order {
		i := gi
		if compact {
			if i = int(e.engIdx[gi]); i < 0 {
				continue
			}
		}
		c := commit[pos]
		if e.placed.Test(i) || c && e.role[i] == roleMustAbort || !c && e.role[i] == roleMustCommit ||
			!e.predOK(i) || !e.pushTxn(i, c) {
			ok = false
			break
		}
	}
	ok = ok && e.placedCount == e.n
	if ok {
		e.emit()
	}
	e.clear()
	return ok
}

// run performs the search and returns the verdict; an accepting one's
// witness is the one emit recorded, for the caller to take.
func (e *engine) run(c Criterion) Verdict {
	v := Verdict{Criterion: c}
	switch {
	case e.search():
		v.OK = true
	case e.cancelled:
		v.Reason, v.Undecided = "context cancelled", true
	case e.bailed:
		v.Reason, v.Undecided = "node limit exceeded", true
	case e.reason == "":
		v.Reason = "no serialization satisfies the criterion"
	default:
		v.Reason = e.reason
	}
	v.Nodes = e.nodes
	return v
}

// ctxPollMask gates the cancellation poll in search(): the context's Done
// channel is checked only when nodes&ctxPollMask == 0 (every 256 nodes,
// plus the very first node so an already-cancelled context never starts
// searching), keeping the per-node cost of WithContext to a nil check.
const ctxPollMask = 255

// search tries to extend the current partial serialization to a full one.
// It returns true when a witness has been found (and, when not
// enumerating, the search should stop).
func (e *engine) search() bool {
	if e.ctxDone != nil && e.nodes&ctxPollMask == 0 {
		select {
		case <-e.ctxDone:
			e.bailed, e.cancelled = true, true
			return false
		default:
		}
	}
	if e.opts.nodeLimit > 0 && e.nodes > e.opts.nodeLimit {
		e.bailed = true
		return false
	}
	e.nodes++

	// Greedy dominance phase (skipped when enumerating, where it would
	// hide valid orders): a transaction that installs no writes never
	// changes the per-object stacks, so if its reads are legal in the
	// current state it can be placed immediately — any completion placing
	// it later maps to one placing it now with identical stack evolution.
	// This collapses the exponential interchangeability of concurrent
	// readers (e.g. the Figure 2 family). The stacks are constant
	// throughout the phase, so a transaction whose reads fail once is dead
	// for the whole phase and the fixpoint loop only re-examines
	// predecessor availability.
	greedy := 0
	if e.collect == nil {
		greedy = e.greedyPlace()
	}
	defer func() {
		for ; greedy > 0; greedy-- {
			e.popTxn()
		}
	}()

	if e.placedCount == e.n {
		return e.emit()
	}
	if e.collect == nil && e.memo.Has(e.fp) {
		return false
	}
	// Try available transactions in first-event order (the analysis order),
	// which finds witnesses quickly on realistic histories.
	found := false
	for w := 0; w < e.words; w++ {
		for m := e.all[w] &^ e.placed[w]; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			if !e.predOK(i) {
				continue
			}
			switch e.role[i] {
			case roleMustCommit:
				found = e.place(i, true)
			case roleMustAbort:
				found = e.place(i, false)
			case roleEither:
				// Prefer committing: transactions whose values someone read
				// must commit, and committing a pending tryC is never required
				// to fail.
				found = e.place(i, true) || e.place(i, false)
			}
			if found {
				return true
			}
			if e.bailed {
				return false
			}
		}
	}
	if e.collect == nil {
		e.memo.Insert(e.fp)
	}
	return false
}

// predOK reports whether every required predecessor of engine transaction
// i is already placed. pred rows may be ragged (aliasing the index's
// real-time sets), never longer than the engine's word count.
func (e *engine) predOK(i int) bool {
	for w, rw := range e.pred[i] {
		if rw&^e.placed[w] != 0 {
			return false
		}
	}
	return true
}

// greedyPlace runs the greedy dominance phase and returns how many
// transactions it placed (the caller pops them when unwinding).
func (e *engine) greedyPlace() int {
	greedy := 0
	for w := range e.dead {
		e.dead[w] = 0
	}
	for {
		progress := false
		for w := 0; w < e.words; w++ {
			for m := e.noWrite[w] &^ e.placed[w] &^ e.dead[w]; m != 0; m &= m - 1 {
				i := w<<6 + bits.TrailingZeros64(m)
				if !e.predOK(i) {
					continue
				}
				// Commit read-only t-committed transactions; abort the rest
				// (for a no-write transaction the two are interchangeable
				// except for equivalence to H).
				if e.pushTxn(i, e.role[i] == roleMustCommit) {
					greedy++
					progress = true
				} else {
					e.dead.Set(i)
				}
			}
		}
		if !progress {
			break
		}
	}
	return greedy
}

// pushTxn checks transaction i's reads against the current stacks and, if
// legal, appends it with the given commit decision, updating the stacks
// and the incremental fingerprint.
func (e *engine) pushTxn(i int, commit bool) bool {
	t := e.txs[i]
	for _, r := range t.Reads {
		base := e.stackOff[r.Obj]
		sl := e.stackLen[r.Obj]
		if sl > 0 {
			if e.stackSlab[base+sl-1].val != r.Val {
				return false
			}
		} else if r.Val != history.InitValue {
			return false
		}
		if e.mode.local {
			legal := false
			foundIncluded := false
			for j := sl - 1; j >= 0; j-- {
				w := &e.stackSlab[base+j]
				if int(w.tryCInv) < r.ResIdx {
					foundIncluded = true
					legal = w.val == r.Val
					break
				}
			}
			if !foundIncluded {
				legal = r.Val == history.InitValue
			}
			if !legal {
				return false
			}
		}
	}
	e.placed.Set(i)
	e.placedCount++
	e.fp ^= zPlaced(i)
	e.order = append(e.order, int32(i))
	e.commits = append(e.commits, commit)
	if commit {
		for _, w := range t.Writes {
			d := e.stackLen[w.Obj]
			e.stackSlab[e.stackOff[w.Obj]+d] = stackEntry{
				txn: int32(i), tryCInv: int32(t.TryCInv), val: w.Val,
			}
			e.stackLen[w.Obj] = d + 1
			e.fp ^= zStack(w.Obj, int(d), i)
		}
	}
	return true
}

// popTxn undoes the most recent pushTxn.
func (e *engine) popTxn() {
	i := int(e.order[len(e.order)-1])
	if e.commits[len(e.commits)-1] {
		t := e.txs[i]
		for _, w := range t.Writes {
			d := e.stackLen[w.Obj] - 1
			e.stackLen[w.Obj] = d
			e.fp ^= zStack(w.Obj, int(d), i)
		}
	}
	e.order = e.order[:len(e.order)-1]
	e.commits = e.commits[:len(e.commits)-1]
	e.placed.Clear(i)
	e.placedCount--
	e.fp ^= zPlaced(i)
}

// place appends transaction i with the given commit decision — checking
// its reads (Definition 3 conditions 1 and 3: the latest committed writer
// on the stack must have written the value read, and so must the latest
// writer whose tryC invocation precedes the read's response in H, with
// T_0's InitValue as the base case) — recurses, and restores state.
func (e *engine) place(i int, commit bool) bool {
	if !e.pushTxn(i, commit) {
		return false
	}
	found := e.search()
	e.popTxn()
	return found
}

// emit records the current complete order as the witness, in dense
// indexes (the search unwinds order and commits on its way out). When
// enumerating it materializes the witness for the collector and reports
// whether to stop.
func (e *engine) emit() bool {
	e.orderBuf = grow(e.orderBuf, len(e.order))
	for pos, i := range e.order {
		e.orderBuf[pos] = e.gidx[i]
	}
	e.commitBuf = append(e.commitBuf[:0], e.commits...)
	return e.collect == nil || e.collect(e.ix.SeqForOrder(e.orderBuf, e.commitBuf))
}

// take copies the witness emit recorded into w's storage (a new witness
// when w is nil) and returns w.
func (e *engine) take(w *witness) *witness {
	if w == nil {
		w = new(witness)
	}
	w.ix = e.ix
	w.order = append(w.order[:0], e.orderBuf...)
	w.commit = append(w.commit[:0], e.commitBuf...)
	return w
}

// --- Fingerprints ---------------------------------------------------------

// zPlaced keys membership of transaction i in the placed set.
func zPlaced(i int) uint64 {
	return fpset.Mix(0xA5A5A5A500000000 | uint64(i))
}

// zStack keys the presence of transaction txn at depth d of object o's
// committed-writer stack, so the accumulated XOR identifies the full stack
// contents in order — the exact state the reference engine's string key
// rendered. The packing keeps the inputs injective for up to 2²⁰
// transactions and stack depths and 2²⁴ objects — far past anything the
// multi-word engine meets (the pre-bitset packing overflowed at 256).
func zStack(obj, depth, txn int) uint64 {
	return fpset.Mix(uint64(obj)<<40 | uint64(depth)<<20 | uint64(txn))
}
