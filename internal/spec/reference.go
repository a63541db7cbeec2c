package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"duopacity/internal/history"
)

// This file freezes the PR 1 search engine as an executable reference
// implementation. The optimized engine in checker.go replaces its
// string-keyed memoization, map-based analysis and O(n) candidate scans
// with the indexed-history view, Zobrist fingerprints and bitmask
// iteration — but it must decide exactly like this one. The differential
// fuzz target (FuzzCheckerDifferential) and the differential tests assert
// verdict equality (OK / reason / undecided) between the two on every
// criterion; keep this file semantically frozen. The reference keeps its
// own copy of the TMS2 and RCO edge builders, in their string-keyed form,
// so that the optimized builders are checked against it too
// (TestConflictEdgesMatchReference).

// refMaxTxns bounds the frozen reference engine: its placed sets and
// predecessor rows are single uint64 masks. The optimized engine has no
// such limit; differential comparisons against this engine must stay
// within this bound.
const refMaxTxns = 64

// refReadReq is an external read of a transaction: a read that returned a
// value and is not preceded by an own write to the same object, so its
// legality depends on the serialization order.
type refReadReq struct {
	obj    int // object index
	val    history.Value
	resIdx int // index in H of the read's response event
	op     history.Op
}

// refWriterEntry records a committed transaction's write on a per-object
// stack, in serialization order.
type refWriterEntry struct {
	txn     int // transaction index
	val     history.Value
	tryCInv int // index in H of the writer's tryC invocation (>= 0)
}

// refEngine is the frozen exhaustive serialization search shared by all
// criteria.
type refEngine struct {
	h    *history.History
	mode searchMode
	opts options

	ids  []history.TxnID
	idx  map[history.TxnID]int
	txs  []*history.TxnInfo
	role []txnRole

	objs   []history.Var
	objIdx map[history.Var]int

	reads      [][]refReadReq          // external reads per txn
	lastWrites []map[int]history.Value // committed values per txn, by object index
	writeObjs  [][]int                 // sorted object indexes written per txn

	pred []uint64 // required predecessors per txn (real-time + extra edges)

	// Search state.
	placed  uint64
	order   []int
	commits []bool
	stacks  [][]refWriterEntry
	memo    map[string]struct{}
	nodes   int

	witness *witness
	reason  string
	bailed  bool // node limit reached
}

// newRefEngine analyzes h for the given mode. It returns an error verdict
// reason if h is statically refuted or out of scope.
func newRefEngine(h *history.History, mode searchMode, opts options) (*refEngine, string) {
	e := &refEngine{h: h, mode: mode, opts: opts, memo: make(map[string]struct{})}
	all := h.Txns()
	e.idx = make(map[history.TxnID]int, len(all))
	for _, k := range all {
		t := h.Txn(k)
		if mode.committedOnly && !(t.Committed() || t.CommitPending()) {
			continue
		}
		e.idx[k] = len(e.ids)
		e.ids = append(e.ids, k)
		e.txs = append(e.txs, t)
	}
	n := len(e.ids)
	if n > refMaxTxns {
		return nil, fmt.Sprintf("history has %d transactions; exact checking is limited to %d", n, refMaxTxns)
	}

	e.objIdx = make(map[history.Var]int)
	for _, v := range h.Vars() {
		e.objIdx[v] = len(e.objs)
		e.objs = append(e.objs, v)
	}
	e.stacks = make([][]refWriterEntry, len(e.objs))

	e.role = make([]txnRole, n)
	e.reads = make([][]refReadReq, n)
	e.lastWrites = make([]map[int]history.Value, n)
	e.writeObjs = make([][]int, n)
	e.pred = make([]uint64, n)

	for i, t := range e.txs {
		switch {
		case t.Committed():
			e.role[i] = roleMustCommit
		case t.CommitPending():
			e.role[i] = roleEither
		default:
			e.role[i] = roleMustAbort
		}
		// Analyze H|k: own-write overlay, external reads, last writes.
		overlay := make(map[history.Var]history.Value)
		for _, op := range t.Ops {
			if op.Pending {
				break
			}
			switch op.Kind {
			case history.OpRead:
				if op.Out != history.OutOK {
					continue
				}
				if v, ok := overlay[op.Obj]; ok {
					if v != op.Val {
						return nil, fmt.Sprintf(
							"T%d: %v returned %d but the transaction's own latest write to %s is %d",
							t.ID, op, op.Val, op.Obj, v)
					}
					continue // own-write read: legal in every serialization
				}
				e.reads[i] = append(e.reads[i], refReadReq{
					obj: e.objIdx[op.Obj], val: op.Val, resIdx: op.ResIndex, op: op,
				})
			case history.OpWrite:
				if op.Out == history.OutOK {
					overlay[op.Obj] = op.Arg
				}
			}
		}
		lw := make(map[int]history.Value, len(overlay))
		for v, val := range overlay {
			lw[e.objIdx[v]] = val
		}
		e.lastWrites[i] = lw
		for o := range lw {
			e.writeObjs[i] = append(e.writeObjs[i], o)
		}
		sort.Ints(e.writeObjs[i])
	}

	// Ordering constraints.
	if mode.realTime {
		for _, m := range e.ids {
			mi := e.idx[m]
			for _, k := range e.ids {
				if h.RealTimePrecedes(k, m) {
					e.pred[mi] |= 1 << uint(e.idx[k])
				}
			}
		}
	}
	for _, edge := range mode.extraEdges {
		ai, aok := e.idx[edge[0]]
		bi, bok := e.idx[edge[1]]
		if aok && bok {
			e.pred[bi] |= 1 << uint(ai)
		}
	}
	if reason := e.staticReject(); reason != "" {
		return nil, reason
	}
	return e, ""
}

// staticReject performs order-independent feasibility checks so that common
// violations are refuted without search, with a precise reason.
func (e *refEngine) staticReject() string {
	// Candidate writers per (object, value): transactions that can commit
	// that value.
	type key struct {
		obj int
		val history.Value
	}
	capable := make(map[key][]int)
	for i := range e.txs {
		if e.role[i] == roleMustAbort {
			continue
		}
		for o, v := range e.lastWrites[i] {
			capable[key{o, v}] = append(capable[key{o, v}], i)
		}
	}
	for i, t := range e.txs {
		for _, r := range e.reads[i] {
			if r.val == history.InitValue {
				continue // T_0 is always a legal source
			}
			cands := capable[key{r.obj, r.val}]
			found := false
			foundLocal := false
			for _, c := range cands {
				if c == i {
					continue
				}
				found = true
				if e.txs[c].TryCInv >= 0 && e.txs[c].TryCInv < r.resIdx {
					foundLocal = true
				}
			}
			if !found {
				return fmt.Sprintf("T%d: %v has no possible source: no committable transaction writes %s=%d",
					t.ID, r.op, e.objs[r.obj], r.val)
			}
			if e.mode.local && !foundLocal {
				return fmt.Sprintf(
					"T%d: %v violates deferred update: no transaction writing %s=%d invoked tryC before the read's response",
					t.ID, r.op, e.objs[r.obj], r.val)
			}
		}
	}
	return ""
}

// run performs the search and returns the verdict fields.
func (e *refEngine) run() (ok bool, w *witness, reason string, bailed bool, nodes int) {
	if e.search() {
		return true, e.witness, "", false, e.nodes
	}
	if e.bailed {
		return false, nil, "node limit exceeded", true, e.nodes
	}
	if e.reason == "" {
		e.reason = "no serialization satisfies the criterion"
	}
	return false, nil, e.reason, false, e.nodes
}

// search tries to extend the current partial serialization to a full one.
func (e *refEngine) search() bool {
	if e.opts.nodeLimit > 0 && e.nodes > e.opts.nodeLimit {
		e.bailed = true
		return false
	}
	e.nodes++
	n := len(e.ids)

	// Greedy dominance phase: see checker.go.
	greedy := 0
	for progress := true; progress; {
		progress = false
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if e.placed&bit != 0 || e.pred[i]&^e.placed != 0 || len(e.writeObjs[i]) > 0 {
				continue
			}
			if e.pushTxn(i, e.role[i] == roleMustCommit) {
				greedy++
				progress = true
			}
		}
	}
	defer func() {
		for ; greedy > 0; greedy-- {
			e.popTxn()
		}
	}()

	if len(e.order) == n {
		return e.emit()
	}
	key := e.stateKey()
	if _, dead := e.memo[key]; dead {
		return false
	}
	found := false
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if e.placed&bit != 0 || e.pred[i]&^e.placed != 0 {
			continue
		}
		switch e.role[i] {
		case roleMustCommit:
			found = e.place(i, true)
		case roleMustAbort:
			found = e.place(i, false)
		case roleEither:
			found = e.place(i, true) || e.place(i, false)
		}
		if found {
			return true
		}
		if e.bailed {
			return false
		}
	}
	e.memo[key] = struct{}{}
	return false
}

// pushTxn checks transaction i's reads against the current stacks and, if
// legal, appends it with the given commit decision, updating the stacks.
func (e *refEngine) pushTxn(i int, commit bool) bool {
	for _, r := range e.reads[i] {
		st := e.stacks[r.obj]
		if len(st) > 0 {
			if st[len(st)-1].val != r.val {
				return false
			}
		} else if r.val != history.InitValue {
			return false
		}
		if e.mode.local {
			legal := false
			foundIncluded := false
			for j := len(st) - 1; j >= 0; j-- {
				if st[j].tryCInv < r.resIdx {
					foundIncluded = true
					legal = st[j].val == r.val
					break
				}
			}
			if !foundIncluded {
				legal = r.val == history.InitValue
			}
			if !legal {
				return false
			}
		}
	}
	e.placed |= uint64(1) << uint(i)
	e.order = append(e.order, i)
	e.commits = append(e.commits, commit)
	if commit {
		for _, o := range e.writeObjs[i] {
			e.stacks[o] = append(e.stacks[o], refWriterEntry{
				txn: i, val: e.lastWrites[i][o], tryCInv: e.txs[i].TryCInv,
			})
		}
	}
	return true
}

// popTxn undoes the most recent pushTxn.
func (e *refEngine) popTxn() {
	i := e.order[len(e.order)-1]
	if e.commits[len(e.commits)-1] {
		for _, o := range e.writeObjs[i] {
			e.stacks[o] = e.stacks[o][:len(e.stacks[o])-1]
		}
	}
	e.order = e.order[:len(e.order)-1]
	e.commits = e.commits[:len(e.commits)-1]
	e.placed &^= uint64(1) << uint(i)
}

// place appends transaction i with the given commit decision, recurses, and
// restores state.
func (e *refEngine) place(i int, commit bool) bool {
	if !e.pushTxn(i, commit) {
		return false
	}
	found := e.search()
	e.popTxn()
	return found
}

// emit records the witness for the current complete order, in the dense
// indexes of the history's indexed view (the serializability baselines
// order only the committed and commit-pending transactions).
func (e *refEngine) emit() bool {
	ix := e.h.Index()
	e.witness = &witness{ix: ix, order: make([]int, len(e.order)), commit: append([]bool(nil), e.commits...)}
	for pos, i := range e.order {
		e.witness.order[pos] = ix.TxnIndexOf(e.ids[i])
	}
	return true
}

// stateKey fingerprints the search state: the placed set plus, per object,
// the stack of committed writers in placement order.
func (e *refEngine) stateKey() string {
	var b strings.Builder
	b.Grow(16 + 4*len(e.objs))
	b.WriteString(strconv.FormatUint(e.placed, 16))
	for _, st := range e.stacks {
		b.WriteByte('|')
		for _, w := range st {
			b.WriteString(strconv.Itoa(w.txn))
			b.WriteByte(',')
		}
	}
	return b.String()
}

// refDecide runs the reference engine for one mode.
func refDecide(h *history.History, c Criterion, mode searchMode, o options) Verdict {
	e, reject := newRefEngine(h, mode, o)
	if reject != "" {
		return Verdict{Criterion: c, Reason: reject}
	}
	ok, w, reason, bailed, nodes := e.run()
	return Verdict{Criterion: c, OK: ok, w: w, Reason: reason, Undecided: bailed, Nodes: nodes}
}

// checkReference dispatches a criterion to the frozen reference engine,
// mirroring Check: the differential fuzz target asserts that the optimized
// engine and this path agree on every history.
func checkReference(h *history.History, c Criterion, o options) Verdict {
	switch c {
	case DUOpacity:
		return refDecide(h, c, searchMode{local: true, realTime: true}, o)
	case FinalStateOpacity:
		return refDecide(h, c, searchMode{realTime: true}, o)
	case Opacity:
		total := 0
		for i := 1; i <= h.Len(); i++ {
			if i < h.Len() && h.At(i-1).Kind != history.Res {
				continue
			}
			v := refDecide(h.Prefix(i), FinalStateOpacity, searchMode{realTime: true}, o)
			total += v.Nodes
			if v.Undecided {
				v.Criterion = Opacity
				v.Nodes = total
				v.Reason = fmt.Sprintf("prefix of length %d: %s", i, v.Reason)
				return v
			}
			if !v.OK {
				return Verdict{
					Criterion: Opacity,
					Reason:    fmt.Sprintf("prefix of length %d is not final-state opaque: %s", i, v.Reason),
					Nodes:     total,
				}
			}
			if i == h.Len() {
				v.Criterion = Opacity
				v.Nodes = total
				return v
			}
		}
		return Verdict{Criterion: Opacity, OK: true, w: &witness{ix: h.Index()}}
	case TMS2:
		return refDecide(h, c, searchMode{realTime: true, extraEdges: refTMS2Edges(h, o.tms2AbortedExemption)}, o)
	case RCO:
		return refDecide(h, c, searchMode{realTime: true, extraEdges: refRCOEdges(h)}, o)
	case StrictSerializability:
		return refDecide(h, c, searchMode{realTime: true, committedOnly: true}, o)
	case Serializability:
		return refDecide(h, c, searchMode{committedOnly: true}, o)
	default:
		return Verdict{Criterion: c, Reason: "unknown criterion"}
	}
}

// refTMS2Edges is the frozen string-keyed TMS2 edge builder: per (writer,
// reader) pair it compares the writer's object names with every read of
// the reader. tms2Edges must produce the same list in the same order.
func refTMS2Edges(h *history.History, exemptAbortedReaders bool) [][2]history.TxnID {
	ix := h.Index()
	var edges [][2]history.TxnID
	var objs []history.Var
	for ai := range ix.Txns {
		t1 := &ix.Txns[ai]
		if !t1.Committed || len(t1.Writes) == 0 || t1.TryCRes < 0 {
			continue
		}
		objs = writeVars(ix, t1, objs[:0])
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
			if readsAny(t2, objs, math.MaxInt) {
				edges = append(edges, [2]history.TxnID{t1.Info.ID, t2.Info.ID})
			}
		}
	}
	return edges
}

// refRCOEdges is the frozen string-keyed RCO edge builder; rcoEdges must
// produce the same list in the same order.
func refRCOEdges(h *history.History) [][2]history.TxnID {
	ix := h.Index()
	var edges [][2]history.TxnID
	var objs []history.Var
	for mi := range ix.Txns {
		tm := &ix.Txns[mi]
		if !tm.Committed || tm.TryCInv < 0 || len(tm.Writes) == 0 {
			continue
		}
		objs = writeVars(ix, tm, objs[:0])
		for ki := range ix.Txns {
			if ki != mi && readsAny(&ix.Txns[ki], objs, tm.TryCInv) {
				edges = append(edges, [2]history.TxnID{ix.TxnIDs[ki], tm.Info.ID})
			}
		}
	}
	return edges
}
