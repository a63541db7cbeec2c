package spec

import (
	"fmt"
	"sort"

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
// RCO's edges are built by et (nil: a new tracker), whose storage the
// engine reads only while it prepares.
func criterionMode(h *history.History, c Criterion, o options, et *edgeTracker) searchMode {
	switch c {
	case DUOpacity:
		return duMode
	case FinalStateOpacity:
		return fsoMode
	case TMS2, RCO:
		if et == nil {
			et = new(edgeTracker)
		}
		et.crit, et.exempt = c, o.tms2AbortedExemption && c == TMS2
		et.build(h)
		return searchMode{realTime: true, extraEdges: et.edges}
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
	e.memo.Reset()
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
	e.memo.Reset()
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
