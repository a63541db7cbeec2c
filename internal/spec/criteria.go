package spec

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"duopacity/internal/history"
)

// CheckDUOpacity decides Definition 3: whether there is a legal t-complete
// t-sequential history S, equivalent to a completion of H, respecting H's
// real-time order, in which every t-read that returns a value is also legal
// in its local serialization with respect to H and S.
//
// The local serialization S^{k,X}_H for read_k(X) keeps the reading
// transaction's own events up to the read and removes every other
// transaction whose tryC invocation is not contained in the prefix of H up
// to the read's response (this is the reading of Definition 3 consistent
// with the paper's Figure 1 walk-through, where T1's own pending events are
// retained). T_0 — the imaginary transaction writing InitValue to every
// object — is always contained.
func CheckDUOpacity(h *history.History, opts ...Option) Verdict {
	return decide(h, DUOpacity, duMode, buildOptions(opts))
}

// CheckFinalStateOpacity decides Definition 4 (Guerraoui and Kapalka):
// whether some completion of H is equivalent to a legal t-complete
// t-sequential history respecting H's real-time order.
func CheckFinalStateOpacity(h *history.History, opts ...Option) Verdict {
	return decide(h, FinalStateOpacity, fsoMode, buildOptions(opts))
}

// CheckOpacity decides Definition 5: every finite prefix of H (including H
// itself) is final-state opaque. Only prefixes ending in a response event
// (plus H itself) matter: an appended invocation is aborted by every
// completion, and a pending tryC only adds completion choices (validated
// against the all-prefixes definition in the tests). It takes three steps:
//
//  1. One du-opacity search on H. If it accepts, H is opaque (Theorem 10)
//     and the du-opaque serialization is the witness: by Lemma 1 it
//     restricts to a serialization of every prefix.
//  2. If du-opacity is refuted, bisect the response prefixes for the
//     shortest one that is not du-opaque, i*; du-opacity is prefix-closed
//     (Corollary 2), so the predicate is monotone.
//  3. Walk the response prefixes from i* on with the final-state search
//     and report the first that fails.
//
// Reason is what the walk from the first prefix reports: every prefix
// shorter than i* is du-opaque, hence final-state opaque, so the first
// failing prefix — and the search run on it — is the same. (Under unique
// writes it is i* itself, Theorem 11.) A du search that hits the node limit
// decides nothing about i*, and the walk then starts at the first prefix.
func CheckOpacity(h *history.History, opts ...Option) Verdict {
	o := buildOptions(opts)
	return opacityFrom(h, decide(h, Opacity, duMode, o), o)
}

// opacityFrom is CheckOpacity after step 1: v is the du-opacity search on
// H, labelled Opacity.
func opacityFrom(h *history.History, v Verdict, o options) Verdict {
	if v.OK {
		return v
	}
	total := v.Nodes
	var ends []int // lengths of the response prefixes, H itself last
	for i := 1; i <= h.Len(); i++ {
		if i == h.Len() || h.At(i-1).Kind == history.Res {
			ends = append(ends, i)
		}
	}
	from, bailed := 0, v.Undecided
	if !bailed {
		from = sort.Search(len(ends)-1, func(k int) bool {
			if bailed {
				return true
			}
			p := decide(h.Prefix(ends[k]), DUOpacity, duMode, o)
			total += p.Nodes
			bailed = p.Undecided
			return !p.OK
		})
	}
	if bailed {
		from = 0
	}
	for _, i := range ends[from:] {
		v = prefixVerdict(decide(h.Prefix(i), Opacity, fsoMode, o), i)
		total += v.Nodes
		if !v.OK {
			break
		}
	}
	v.Nodes = total
	return v
}

// prefixVerdict is the opacity verdict v, the final-state search on the
// response prefix of length i, says about H: a rejection or an undecided
// search names the prefix.
func prefixVerdict(v Verdict, i int) Verdict {
	switch {
	case v.Undecided:
		v.Reason = fmt.Sprintf("prefix of length %d: %s", i, v.Reason)
	case !v.OK:
		v.Reason = fmt.Sprintf("prefix of length %d is not final-state opaque: %s", i, v.Reason)
	}
	return v
}

// CheckTMS2 decides the TMS2-style restriction discussed in Section 4.2:
// final-state opacity plus the conflict-order requirement. The paper's
// informal statement is pinned down as follows: for transactions T1, T2
// with X ∈ Wset(T1) ∩ Rset(T2), if T1 committed in H and the response of
// tryC_1 precedes the invocation of tryC_2 in H, then T1 <_S T2.
// (Overlapping tryC operations impose no constraint, matching the
// linearization freedom TMS2 gives concurrent commits.) This reproduces the
// paper's Figure 6 separation: du-opaque but not TMS2.
//
// WithTMS2AbortedReaderExemption switches to the alternative reading in
// which edges sourced at aborted readers are dropped (see the option's
// documentation for the interpretation question it resolves).
func CheckTMS2(h *history.History, opts ...Option) Verdict {
	o := buildOptions(opts)
	return decide(h, TMS2, criterionMode(h, TMS2, o, nil), o)
}

// tms2Edges appends to edges CheckTMS2's conflict-order edges: T1 -> T2
// for a committed writer T1 of an object in T2's read set whose tryC
// response precedes T2's tryC invocation.
func tms2Edges(edges [][2]history.TxnID, h *history.History, exemptAbortedReaders bool) [][2]history.TxnID {
	ix := h.Index()
	fr := getFirstReads(ix)
	defer fr.release()
	for ai := range ix.Txns {
		t1 := &ix.Txns[ai]
		if !t1.Committed || len(t1.Writes) == 0 || t1.TryCRes < 0 {
			continue
		}
		fr.markReaders(t1.Writes, noRead)
		for bi := range ix.Txns {
			if bi == ai {
				continue
			}
			t2 := &ix.Txns[bi]
			if t2.TryCInv < 0 || t1.TryCRes >= t2.TryCInv {
				continue
			}
			if exemptAbortedReaders && t2.TComplete && !t2.Committed {
				continue
			}
			if fr.marked(bi) {
				edges = append(edges, [2]history.TxnID{t1.Info.ID, t2.Info.ID})
			}
		}
	}
	return edges
}

// writesObj reports whether the transaction installs a write to the dense
// object index obj.
func writesObj(t *history.IndexedTxn, obj int) bool {
	for _, w := range t.Writes {
		if w.Obj == obj {
			return true
		}
		if w.Obj > obj { // Writes are sorted by object index
			return false
		}
	}
	return false
}

// writeVars appends to buf the names of the objects t installs: the
// monitor's incremental edge tracker resolves a writer's few names once
// instead of hashing every read's name to an index.
func writeVars(ix *history.Indexed, t *history.IndexedTxn, buf []history.Var) []history.Var {
	for _, w := range t.Writes {
		buf = append(buf, ix.Objs[w.Obj])
	}
	return buf
}

// readsAny reports whether reader has a completed successful read (Rset
// membership, own-write reads included) of one of objs whose response
// precedes the event at index before.
func readsAny(reader *history.IndexedTxn, objs []history.Var, before int) bool {
	for i := range reader.Info.Ops {
		op := &reader.Info.Ops[i]
		if op.Kind != history.OpRead || op.Pending || op.Out != history.OutOK || op.ResIndex >= before {
			continue
		}
		for _, o := range objs {
			if o == op.Obj {
				return true
			}
		}
	}
	return false
}

// CheckRCO decides the read-commit-order opacity of Guerraoui, Henzinger
// and Singh ([6] in the paper), discussed in Section 4.2: final-state
// opacity plus the requirement that if the response of a t-read of X by T_k
// precedes the invocation of tryC_m of a transaction T_m that commits a
// write to X in H, then T_k <_S T_m. This reproduces the paper's Figure 5
// separation: du-opaque (hence opaque) but not RCO-opaque.
func CheckRCO(h *history.History, opts ...Option) Verdict {
	o := buildOptions(opts)
	return decide(h, RCO, criterionMode(h, RCO, o, nil), o)
}

// rcoEdges appends to edges CheckRCO's conflict-order edges: T_k -> T_m
// for a reader T_k of an object T_m commits whose read responds before
// T_m's tryC invocation.
func rcoEdges(edges [][2]history.TxnID, h *history.History) [][2]history.TxnID {
	ix := h.Index()
	fr := getFirstReads(ix)
	defer fr.release()
	for mi := range ix.Txns {
		tm := &ix.Txns[mi]
		if !tm.Committed || tm.TryCInv < 0 || len(tm.Writes) == 0 {
			continue
		}
		fr.markReaders(tm.Writes, int32(tm.TryCInv))
		for ki := range ix.Txns {
			if ki != mi && fr.marked(ki) {
				edges = append(edges, [2]history.TxnID{ix.TxnIDs[ki], tm.Info.ID})
			}
		}
	}
	return edges
}

// noRead is the before bound of a read at any point in H.
const noRead = math.MaxInt32

// firstRead is a transaction's first completed successful read of an
// object: the reader's dense index and the read's response index in H.
type firstRead struct{ txn, res int32 }

// firstReads is the read-set table the conflict-order edge builders test
// membership in: per object o, at[off[o]:off[o+1]] lists each transaction
// that read o (Rset membership, own-write reads included) with its first
// read's response, in dense transaction order. The table takes space per
// read, not per (transaction, object) pair. A writer marks the readers of
// its objects once (markReaders); each (writer, reader) pair is then one
// stamp comparison instead of a name comparison per read.
type firstReads struct {
	at    []firstRead
	off   []int32
	cur   []int32  // per object: 1 + the last reader while collecting, then the fill cursor
	reads []int32  // collected (obj, txn, res) triples, flat
	mark  []uint32 // per transaction: the stamp of the last markReaders that found it
	stamp uint32
}

var firstReadsPool = sync.Pool{New: func() any { return new(firstReads) }}

func getFirstReads(ix *history.Indexed) *firstReads {
	fr := firstReadsPool.Get().(*firstReads)
	objs := ix.NumObjs()
	fr.cur = grow(fr.cur, objs)
	fr.off = grow(fr.off, objs+1)
	for o := range fr.cur {
		fr.cur[o] = 0
	}
	for o := range fr.off {
		fr.off[o] = 0
	}
	fr.reads = fr.reads[:0]
	for ti := range ix.Txns {
		it := &ix.Txns[ti]
		// External reads carry their object index; the rest are own-write
		// reads, rare enough to resolve by name.
		ext := it.Reads
		for i := range it.Info.Ops {
			op := &it.Info.Ops[i]
			if op.Kind != history.OpRead || op.Pending || op.Out != history.OutOK {
				continue
			}
			var o int
			if len(ext) > 0 && ext[0].ResIdx == op.ResIndex {
				o, ext = ext[0].Obj, ext[1:]
			} else {
				o = ix.ObjIndexOf(op.Obj)
			}
			if fr.cur[o] != int32(ti+1) {
				fr.cur[o] = int32(ti + 1)
				fr.off[o+1]++
				fr.reads = append(fr.reads, int32(o), int32(ti), int32(op.ResIndex))
			}
		}
	}
	for o := 0; o < objs; o++ {
		fr.off[o+1] += fr.off[o]
		fr.cur[o] = fr.off[o]
	}
	fr.at = grow(fr.at, len(fr.reads)/3)
	for r := 0; r < len(fr.reads); r += 3 {
		o := fr.reads[r]
		fr.at[fr.cur[o]] = firstRead{fr.reads[r+1], fr.reads[r+2]}
		fr.cur[o]++
	}
	fr.mark = grow(fr.mark, ix.NumTxns())
	for t := range fr.mark {
		fr.mark[t] = 0
	}
	fr.stamp = 0
	return fr
}

func (fr *firstReads) release() { firstReadsPool.Put(fr) }

// markReaders marks the transactions that read one of the objects writes
// installs with a response before the event at index before (noRead: at
// any point); marked tells them until the next call.
func (fr *firstReads) markReaders(writes []history.IndexedWrite, before int32) {
	fr.stamp++
	for _, w := range writes {
		for _, r := range fr.at[fr.off[w.Obj]:fr.off[w.Obj+1]] {
			if r.res < before {
				fr.mark[r.txn] = fr.stamp
			}
		}
	}
}

// marked reports whether the last markReaders marked transaction ti.
func (fr *firstReads) marked(ti int) bool { return fr.mark[ti] == fr.stamp }

// CheckStrictSerializability checks that the committed transactions
// (counting commit-pending ones as free to commit or abort) admit a legal
// total order respecting H's real-time order. Aborted and incomplete
// transactions — and their reads — are ignored.
func CheckStrictSerializability(h *history.History, opts ...Option) Verdict {
	return decide(h, StrictSerializability, strictSerMode, buildOptions(opts))
}

// CheckSerializability is CheckStrictSerializability without the real-time
// requirement.
func CheckSerializability(h *history.History, opts ...Option) Verdict {
	return decide(h, Serializability, serMode, buildOptions(opts))
}

// The search modes of the criteria without conflict-order edges.
var (
	duMode        = searchMode{local: true, realTime: true}
	fsoMode       = searchMode{realTime: true}
	strictSerMode = searchMode{realTime: true, committedOnly: true}
	serMode       = searchMode{committedOnly: true}
)

// criterionMode is the one search that decides c on h — every criterion
// but Opacity, which is a walk over prefixes (CheckOpacity). TMS2's and
// RCO's edges are built in the storage of edges (nil: new storage), which
// the engine reads only while it prepares.
func criterionMode(h *history.History, c Criterion, o options, edges [][2]history.TxnID) searchMode {
	switch c {
	case DUOpacity:
		return duMode
	case FinalStateOpacity:
		return fsoMode
	case TMS2:
		return searchMode{realTime: true, extraEdges: tms2Edges(edges[:0], h, o.tms2AbortedExemption)}
	case RCO:
		return searchMode{realTime: true, extraEdges: rcoEdges(edges[:0], h)}
	case StrictSerializability:
		return strictSerMode
	case Serializability:
		return serMode
	}
	panic(fmt.Sprintf("spec: %v is not decided by one search", c))
}

// decide runs the search that decides c in mode on h. An offered
// serialization that places (see CheckAll) settles an accept first, and
// the placed order is the witness.
func decide(h *history.History, c Criterion, mode searchMode, o options, offers ...*witness) Verdict {
	return decideInto(nil, h, c, mode, o, offers...)
}

// decideInto is decide keeping an accepting verdict's witness in the
// storage of into (a new witness when into is nil), which a rejecting
// verdict leaves alone.
func decideInto(into *witness, h *history.History, c Criterion, mode searchMode, o options, offers ...*witness) Verdict {
	e, reject := prepareEngine(h, mode, o)
	if reject != "" {
		return Verdict{Criterion: c, Reason: reject}
	}
	defer e.release()
	for _, w := range offers {
		if e.placeOrder(w.order, w.commit) {
			return Verdict{Criterion: c, OK: true, w: e.take(into)}
		}
	}
	if reject := e.staticReject(); reject != "" {
		return Verdict{Criterion: c, Reason: reject}
	}
	e.memo.reset()
	v := e.run(c)
	if v.OK {
		v.w = e.take(into)
	}
	return v
}

// AllDUSerializations enumerates du-opaque serializations of h, invoking fn
// for each; enumeration stops when fn returns false or when max witnesses
// (0 = unlimited) have been produced. It returns the number of witnesses
// produced. Enumeration disables memoization and is exponential; use it
// only on small histories (e.g. to verify that a property holds in every
// serialization, as in the paper's Proposition 1 argument).
func AllDUSerializations(h *history.History, max int, fn func(*history.Seq) bool) int {
	e, reject := prepareEngine(h, duMode, options{})
	if reject != "" {
		return 0
	}
	if e.staticReject() != "" {
		e.release()
		return 0
	}
	e.memo.reset()
	count := 0
	e.collect = func(s *history.Seq) bool {
		count++
		if !fn(s) {
			return true
		}
		return max > 0 && count >= max
	}
	e.search()
	e.release()
	return count
}

// UniqueWrites reports whether no two distinct transactions write the same
// value to the same t-object in H — the hypothesis of Theorem 11, under
// which opacity and du-opacity coincide. Writes of InitValue also violate
// uniqueness (they collide with T_0).
func UniqueWrites(h *history.History) bool {
	type key struct {
		obj history.Var
		val history.Value
	}
	writer := make(map[key]history.TxnID)
	for _, k := range h.Txns() {
		for _, op := range h.Txn(k).Ops {
			if op.Kind != history.OpWrite || op.Pending || op.Out != history.OutOK {
				continue
			}
			if op.Arg == history.InitValue {
				return false
			}
			kk := key{op.Obj, op.Arg}
			if w, ok := writer[kk]; ok && w != k {
				return false
			}
			writer[kk] = k
		}
	}
	return true
}
