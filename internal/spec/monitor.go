package spec

import (
	"math/bits"

	"duopacity/internal/history"
)

// Monitor checks one criterion online while a history is being produced —
// the use the paper's Section 5 envisions for a constructive correctness
// condition. It is a one-criterion Session (see there for the contract);
// its methods only pick the single decider's answer out of the session.
type Monitor struct{ s Session }

// NewMonitor returns a monitor for the given criterion, one of
// MonitorableCriteria() (see there for what each is monitored as: the
// criterion itself where it is prefix-closed, else the latched property
// "every response prefix observed so far satisfies it", equal to the
// batch verdict at every response prefix up to and including the first
// violation). The distinction matters only for TMS2 with the
// aborted-reader exemption, whose edge removals can heal a batch violation
// in a later prefix; a latched monitor keeps reporting the violation it
// proved. TMS2 edges appear at tryC invocations; the monitor, which
// recomputes verdicts only at responses, enforces them from the next
// response prefix on — batch verdicts at response prefixes are unaffected.
func NewMonitor(c Criterion, opts ...Option) (*Monitor, error) {
	m := &Monitor{}
	if err := m.s.init([]Criterion{c}, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// Stats reports the monitor's full searches and incremental witness
// reuses; Counters what its flips and retirement probes touched; Len the
// events observed so far, including those of retired transactions; Retired
// the transactions windowed retirement has replaced by a checkpoint (zero
// without WithRetirement); LiveTxns the transactions in the live history,
// checkpoint included; Verdict the verdict for the history observed so far;
// Rewind is Session.Rewind.
func (m *Monitor) Stats() (searches, fastHits int) { return m.s.Stats() }
func (m *Monitor) Counters() Counters              { return m.s.Counters() }
func (m *Monitor) Len() int                        { return m.s.totalEvents }
func (m *Monitor) Retired() int                    { return m.s.Retired() }
func (m *Monitor) LiveTxns() int                   { return m.s.LiveTxns() }
func (m *Monitor) Verdict() Verdict                { return m.s.deciders[0].verdict }
func (m *Monitor) Rewind(n int) error              { return m.s.Rewind(n) }

// History returns a snapshot of the live history: everything observed so
// far, minus any prefix windowed retirement has replaced by its
// checkpoint transaction (T_-1). Without WithRetirement it is the whole
// observed history.
func (m *Monitor) History() *history.History { return m.s.st.History() }

// Append is Session.Append for the one criterion: the updated verdict,
// whose Witness must be asked for before the next Append or Rewind.
func (m *Monitor) Append(e history.Event) (Verdict, error) {
	err := m.s.append(e)
	return m.s.deciders[0].verdict, err
}

// decider is one criterion's share of a Session: the state that depends
// on which criterion is decided. At a response it maintains a witness
// serialization order incrementally instead of searching:
//
//   - transactions enter the witness order at the end when they first
//     appear, which can never violate real-time order (nothing real-time
//     precedes a transaction that just performed its first event except
//     transactions already placed earlier);
//   - a response that aborts a transaction the witness already aborts, or
//     commits one it already commits, adds no constraint;
//   - a successful write by a live transaction installs nothing until its
//     tryC commits, so the witness stands;
//   - a value-returning external read is checked — alone — against the
//     committed writers placed before its transaction (both the latest
//     committed value and the deferred-update local-serialization value);
//     where it fails in place, the reader is moved to the end of the
//     order (moveLast), which re-checks only its own reads;
//   - a tryC that commits against the witness's guess first moves the
//     committer to the end, committed (moveLast): under deferred update a
//     transaction serializes at its commit, and at its latest event
//     nothing real-time follows it. Where the move is refused, the commit
//     decision flips in place, re-checking only what that can change —
//     the later reads of the flipped transaction's write set, see flip;
//   - only when move and flip both fail does the exhaustive search run.
//
// Moves apply to criteria without conflict-order edges (TMS2 and RCO
// flip in place or search).
type decider struct {
	crit    Criterion
	verdict Verdict
	// diedAt is the index of the event whose recheck made the decider dead
	// (-1 while it lives): a rewind that undoes that event revives it, any
	// other leaves it latched.
	diedAt int
	// searches and fastHits count full searches vs. incremental witness
	// reuses, flips and moves the commit-decision flips and moves to the
	// end tried, readsRechecked the reads they re-validated, for
	// introspection and benchmarks.
	searches       int
	fastHits       int
	flips          int
	moves          int
	readsRechecked int

	// The incrementally maintained witness: a serialization order over
	// dense transaction indexes with per-position commit decisions. It
	// certifies the history observed so far whenever verdict.OK holds, and
	// an accepting verdict hands it out as is (see accepted).
	witness
	pos []int // dense txn index -> position in order
	// localReads selects the read-legality the fast path enforces:
	// du-opacity checks each external read against both the latest
	// committed writer placed before it and the deferred-update local
	// serialization; the other criteria need only the former, and
	// checking both would reject valid witnesses adopted from their
	// weaker searches, degrading the fast path to a search per event.
	localReads bool

	// edges maintains the criterion's extra conflict-order constraints
	// incrementally (TMS2 / RCO only, nil otherwise): standing edges feed
	// every full search, edges added since the last recheck are validated
	// against the witness on the fast path. See monitor_edges.go.
	edges *edgeTracker

	// eng is the engine that places re-prepares at every call (nil until
	// the first): a rewind takes no engine from the pool and returns none.
	// Between calls it still points into the history it last placed on.
	eng *engine
}

// accepted is the OK verdict handing out the decider's own witness over
// ix, stamped with the current generation.
func (d *decider) accepted(ix *history.Indexed) Verdict {
	d.ix = ix
	return Verdict{Criterion: d.crit, OK: true, gen: d.gen, w: &d.witness}
}

// advance starts a new witness generation — the session is about to
// change — and restamps the standing verdict, which carries over until a
// response replaces it.
func (d *decider) advance() {
	d.gen++
	d.verdict.gen = d.gen
}

// dead reports that the decider will never consult the stream again and
// keeps its verdict. A violation is permanent (prefix closure). So is an
// undecided opacity verdict: monitored opacity decides "every prefix
// final-state opaque" by induction over accepted prefixes, which a prefix
// skipped at the node limit breaks for good. (The other criteria are
// properties of the current history alone: undecided, they search again
// at the next response.) A dead decider has no say in retirement.
func (d *decider) dead() bool {
	return !d.verdict.OK && (!d.verdict.Undecided || d.crit == Opacity)
}

// step folds the just-appended event e into the decider's state; h is the
// session's live history, already holding e.
func (d *decider) step(h *history.History, e history.Event, ro options) {
	d.advance()
	if d.dead() {
		return
	}
	if d.edges != nil {
		// Fold the event into the incremental edge state before any
		// verdict work — TMS2 edges appear at tryC invocations, RCO edges
		// and TMS2 exemption removals at tryC responses.
		d.edges.observe(h.Index(), e)
	}
	// An invocation cannot break acceptance: the new pending operation is
	// aborted by every completion without constraining legality, and a new
	// pending tryC only adds completion choices (a TMS2 edge it adds is
	// enforced from the next response prefix on; see NewMonitor). The
	// verdict carries over; the witness order catches up at a response.
	if e.Kind == history.Res {
		d.verdict = d.recheck(h, e, ro)
		if d.dead() {
			d.diedAt = h.Len() - 1
		}
	}
}

// rewind re-anchors the decider on h, the session's live history just
// truncated to a response prefix (or to nothing) that the decider had
// accepted — or skipped undecided — on the way up. A decider that died
// at an event h still holds stays latched; any other comes back live.
//
// The witness is restricted as in the proof of Lemma 1: the positions of
// transactions that vanished are dropped, a commit decision that no tryC
// backs any more (the transaction is neither committed nor commit-pending
// in h) becomes an abort, everything else stays. The restricted order is
// then placed like any offered order (places), against the conflict-order
// edges the tracker builds over h for TMS2 / RCO. For du-opacity
// Lemma 1 says it places; where it may not (final-state opacity is not
// prefix-closed, and conflict-order edges are not part of Lemma 1) the
// exact search decides, so a rewind can cost a search, never an answer —
// short of the node limit or the context cutting that search off, which
// leaves this decider Undecided where one that got here on the fast path
// is OK (and the other way round: the restricted witness can place at a
// prefix the forward search gave up on).
func (d *decider) rewind(h *history.History, ro options) {
	d.advance()
	if d.dead() && d.diedAt < h.Len() {
		return
	}
	d.diedAt = -1
	ix := h.Index()
	n, k := ix.NumTxns(), 0
	for p, gi := range d.order {
		if gi < n { // dense order is first-appearance order: the survivors are [0,n)
			it := &ix.Txns[gi]
			d.order[k], d.commit[k] = gi, d.commit[p] && (it.Committed || it.CommitPending)
			d.pos[gi] = k
			k++
		}
	}
	d.order, d.commit, d.pos = d.order[:k], d.commit[:k], d.pos[:k]
	d.syncOrder(ix) // a stale order (undecided stretch) may lack some; the end is always a valid place
	if d.edges != nil {
		d.edges.build(h)
	}
	ok := d.places(h, ro)
	if rewindOracle != nil {
		rewindOracle(d, h, ro, ok)
	}
	if ok {
		d.verdict = d.accepted(ix)
		return
	}
	d.verdict = d.search(h, ro)
	if d.dead() {
		d.diedAt = h.Len() - 1
	}
}

// recheck computes the verdict after response event e, trying the
// incremental witness first. The fast path validates the witness against
// the monitored criterion's own conditions — read legality (plus the
// deferred-update local condition for du-opacity only, see localReads)
// and, for TMS2/RCO, the conflict-order edges added since the last
// recheck — so a fast hit certifies exactly; any failure falls through to
// the exhaustive search, which decides exactly.
func (d *decider) recheck(h *history.History, e history.Event, ro options) Verdict {
	ix := h.Index()
	if d.verdict.OK && d.fastRecheck(ix, e) {
		d.fastHits++
		if d.edges != nil {
			d.edges.clearFresh()
		}
		return d.accepted(ix)
	}
	v := d.search(h, ro)
	if d.edges != nil {
		// The search enforces the whole standing edge set; nothing stays
		// fresh past it, whatever the outcome.
		d.edges.clearFresh()
	}
	return v
}

// search decides h exhaustively and adopts the witness of an accepting
// answer. Opacity searches final-state opacity of the current history:
// every response prefix seen so far was accepted (or the decider would be
// dead), so that decides opacity incrementally. (Batch CheckOpacity has
// seen no earlier prefix; it vouches for them through du-opacity instead,
// Theorem 10.)
func (d *decider) search(h *history.History, ro options) Verdict {
	d.searches++
	v := decideInto(&d.witness, h, d.crit, d.mode(), ro)
	if d.crit == Opacity {
		v = prefixVerdict(v, h.Len())
	}
	if v.OK {
		d.adoptWitness()
		v.gen = d.gen
	}
	return v
}

// mode is the search mode of the batch checker for the decider's
// criterion, with the incrementally maintained conflict-order edges (TMS2 /
// RCO) — the set the batch checker builds over the same history. Opacity
// searches as final-state opacity (see search).
func (d *decider) mode() searchMode {
	m := fsoMode
	if d.crit == DUOpacity {
		m = duMode
	}
	if d.edges != nil {
		m.extraEdges = d.edges.edges
	}
	return m
}

// places reports whether the decider's witness order certifies h under
// its criterion: the decider's held engine, prepared for h in the mode its
// search would use, places the order (placeOrder checks roles, real-time
// order, the standing conflict-order edges and every read, du-opacity's
// local clause included).
func (d *decider) places(h *history.History, ro options) bool {
	if d.eng == nil {
		d.eng = new(engine)
	}
	return d.eng.prepare(h, d.mode(), ro) == "" && d.eng.placeOrder(d.order, d.commit)
}

// rewindOracle is nil outside tests, which set it (WatchRewindPlacements)
// to place every rewind's restricted order on a pooled engine beside the
// decider's held one.
var rewindOracle func(d *decider, h *history.History, ro options, held bool)

// syncOrder appends transactions that entered the history since the last
// response to the end of the witness order. A fresh transaction has a
// single pending operation — no reads to justify, no installed writes —
// and nothing real-time precedes it that is not already placed, so the
// extension is always valid.
func (d *decider) syncOrder(ix *history.Indexed) {
	for gi := len(d.pos); gi < ix.NumTxns(); gi++ {
		d.pos = append(d.pos, len(d.order))
		d.order = append(d.order, gi)
		d.commit = append(d.commit, false)
	}
}

// adoptWitness makes the order and commit decisions a search just wrote
// into the decider's witness the incremental one, indexing its positions.
// No monitorable criterion orders the committed transactions only, so the
// order places every transaction.
func (d *decider) adoptWitness() {
	d.pos = grow(d.pos, len(d.order))
	for p, gi := range d.order {
		d.pos[gi] = p
	}
}

// fastRecheck decides whether the witness order, incrementally updated,
// still certifies the history extended by response event e. It reports
// false when only the exhaustive search can decide.
func (d *decider) fastRecheck(ix *history.Indexed, e history.Event) bool {
	d.syncOrder(ix)
	if d.edges != nil && !d.edges.freshOK(ix, d.pos) {
		// A conflict-order edge added since the last recheck is violated
		// by the standing witness order; only the search (which enforces
		// the whole edge set) can decide. Standing edges need no per-event
		// check: they were validated when fresh, and witness positions
		// only change through adoptWitness, which re-validates everything.
		return false
	}
	gi := ix.TxnIndexOf(e.Txn)
	if gi < 0 {
		return false
	}
	it := &ix.Txns[gi]
	p := d.pos[gi]
	switch {
	case e.Op == history.OpTryCommit && e.Out == history.OutCommit:
		// The witness had already committed the pending tryC; or the
		// committer moves to the end, committed; or it flips to committed
		// in place: the transaction's writes enter the stacks at p.
		return d.commit[p] || d.moveLast(ix, p, true) || d.flip(ix, p)
	case e.Out != history.OutOK:
		// A_k on any operation. The witness aborts live transactions, so
		// an abort adds no constraint — unless it had committed a
		// commit-pending transaction that now aborted, whose writes leave
		// the stacks.
		return !d.commit[p] || d.flip(ix, p)
	case e.Op == history.OpRead:
		// A value-returning read. An own-write read constrains nothing
		// once consistent; BadReadOp >= 0 here means e just made the
		// transaction internally inconsistent (earlier inconsistencies
		// would have latched) — let the search produce the exact reason.
		if it.BadReadOp >= 0 {
			return false
		}
		if n := len(it.Reads); n > 0 && it.Reads[n-1].ResIdx == ix.H.Len()-1 {
			return d.checkRead(ix, p, it.Reads[n-1]) || d.moveLast(ix, p, false)
		}
		return true
	case e.Op == history.OpWrite:
		// A successful write by a (necessarily live) transaction installs
		// nothing until its tryC commits. A witness that commits it
		// already is believed unreachable (a committed position has
		// invoked its tryC); the search would decide.
		return !d.commit[p]
	default:
		return false
	}
}

// flipOracle is nil outside tests, which set it to run the whole-order
// placement (places) beside every flip's and every move's restricted check
// (export_test.go); p is the position whose decision changed, the last one
// after a move.
var flipOracle func(d *decider, ix *history.Indexed, p int, move, ok bool)

// moveLast moves the transaction at position p, which the witness aborts,
// to the end of the order with the given commit decision, and reports
// whether the witness still certifies; if not, the order is restored for
// the fallback. The current response is T_p's latest event, so no
// transaction real-time follows T_p; the witness aborted it, so taking it
// out of p changes no stack another position reads; and at the end its
// writes reach no read. T_p's role fits the decision either caller
// passes (committed at C_p, live at a read). So the only checks that can
// come out differently are T_p's own reads: the read just returned, and
// each earlier one whose object a committed position after p writes —
// every other sees the same committed writers before it as at p
// (DESIGN.md, "What a flip can change", Lemma (a move to the end is
// local)). Criteria with conflict-order edges keep their positions: a
// move is not tried.
func (d *decider) moveLast(ix *history.Indexed, p int, commit bool) bool {
	last := len(d.order) - 1
	if d.edges != nil || d.commit[p] || p == last {
		return false
	}
	d.moves++
	d.rotate(p, last)
	d.commit[last] = commit
	reads := ix.Txns[d.order[last]].Reads
	ok := true
	for i := 0; ok && i < len(reads); i++ {
		if r := reads[i]; r.ResIdx == ix.H.Len()-1 || d.committedWriter(ix, p, last, r.Obj) {
			d.readsRechecked++
			ok = d.checkRead(ix, last, r)
		}
	}
	if flipOracle != nil {
		flipOracle(d, ix, last, true, ok)
	}
	if !ok {
		d.commit[last] = false // the decision T_p had at p
		d.rotate(last, p)
	}
	return ok
}

// rotate moves the position from, transaction and commit decision, to
// position to, shifting the positions in between by one towards from.
func (d *decider) rotate(from, to int) {
	gi, c := d.order[from], d.commit[from]
	if from < to {
		copy(d.order[from:to], d.order[from+1:to+1])
		copy(d.commit[from:to], d.commit[from+1:to+1])
	} else {
		copy(d.order[to+1:from+1], d.order[to:from])
		copy(d.commit[to+1:from+1], d.commit[to:from])
	}
	d.order[to], d.commit[to] = gi, c
	for q := min(from, to); q <= max(from, to); q++ {
		d.pos[d.order[q]] = q
	}
}

// committedWriter reports whether a position in [from,to) the witness
// commits writes object obj.
func (d *decider) committedWriter(ix *history.Indexed, from, to, obj int) bool {
	top, _ := d.lastWriters(ix, obj, from, to, -1)
	return top >= 0
}

// flip inverts the commit decision at position p, where a tryC just
// resolved against the witness's guess, and reports whether the witness
// still certifies; if not, the decision is restored for the search. The
// witness certified the previous response prefix and only commit[p] has
// changed since (transactions entered at the end without reads; a position
// the witness commits has invoked its tryC, so its Writes and TryCInv are
// final), while checkRead(q, r) reads nothing but commit, Writes and
// TryCInv of the positions before q that write r.Obj. So the only checks
// that can come out differently are T_p's own role constraint and the
// reads, by transactions placed after p, of an object T_p writes — the
// deferred-update reading of what a commit can change (DESIGN.md, "What a
// flip can change").
func (d *decider) flip(ix *history.Indexed, p int) bool {
	d.flips++
	d.commit[p] = !d.commit[p]
	tp := &ix.Txns[d.order[p]]
	ok := d.commit[p] == tp.Committed || d.commit[p] && tp.CommitPending
	for q := p + 1; ok && q < len(d.order); q++ {
		reads := ix.Txns[d.order[q]].Reads
		for i := 0; ok && i < len(reads); i++ {
			if writesObj(tp, reads[i].Obj) {
				d.readsRechecked++
				ok = d.checkRead(ix, q, reads[i])
			}
		}
	}
	if flipOracle != nil {
		flipOracle(d, ix, p, false, ok)
	}
	if !ok {
		d.commit[p] = !d.commit[p]
	}
	return ok
}

// checkRead verifies one external value-returning read of the transaction
// at position readerPos against the committed writers placed before it:
// the latest committed write to the object must be the value read
// (legality) and — when the monitored criterion is du-opacity
// (localReads) — so must the latest one whose tryC invocation precedes
// the read's response in H (the deferred-update local serialization),
// with T_0's InitValue as the base case for both. It costs the writers of
// r.Obj, not the positions before the reader (lastWriters).
func (d *decider) checkRead(ix *history.Indexed, readerPos int, r history.IndexedRead) bool {
	top, local := d.lastWriters(ix, r.Obj, 0, readerPos, r.ResIdx)
	if d.localReads && installed(ix, local, r.Obj) != r.Val {
		return false
	}
	return installed(ix, top, r.Obj) == r.Val
}

// lastWriters looks up, among the transactions writing object obj that the
// witness commits at a position in [from,to), the one placed last (top)
// and the one placed last whose tryC invocation precedes event before
// (local), as dense transaction indexes, -1 where there is none. It walks
// the index's writers of obj (Writers[obj], exactly the transactions whose
// Writes name obj) and reads each one's position, so a lookup costs the
// object's writers whatever the length of the witness; it answers what a
// scan of the positions [from,to) would.
func (d *decider) lastWriters(ix *history.Indexed, obj, from, to, before int) (top, local int) {
	top, local = -1, -1
	topPos, localPos := -1, -1
	for w, bw := range ix.Writers[obj] {
		for ; bw != 0; bw &= bw - 1 {
			gi := w<<6 + bits.TrailingZeros64(bw)
			q := d.pos[gi]
			if q < from || q >= to || !d.commit[q] {
				continue
			}
			if q > topPos {
				topPos, top = q, gi
			}
			if inv := ix.Txns[gi].TryCInv; q > localPos && inv >= 0 && inv < before {
				localPos, local = q, gi
			}
		}
	}
	if lookupOracle != nil {
		lookupOracle(d, ix, obj, from, to, before, top, local)
	}
	return top, local
}

// lookupOracle is nil outside tests, which set it (export_test.go) to
// compare every lastWriters answer with the whole-prefix scan of the
// positions [from,to) that the per-object lookup replaced.
var lookupOracle func(d *decider, ix *history.Indexed, obj, from, to, before, top, local int)

// installed returns the value transaction gi installs on object obj, which
// it writes; T_0's InitValue for gi = -1.
func installed(ix *history.Indexed, gi, obj int) history.Value {
	if gi < 0 {
		return history.InitValue
	}
	for _, w := range ix.Txns[gi].Writes {
		if w.Obj == obj {
			return w.Val
		}
	}
	panic("spec: a writer of the object installs no value on it")
}

// shift carries a decider with a full witness over the retirement of the
// settled prefix [0,r); live is the rebuilt stream's index, the old dense
// indexes offset by the checkpoint at 0. The barrier forces every witness
// to place the retired prefix first, so its live tail behind the
// checkpoint is a witness for the rebuilt stream — no search is needed.
func (d *decider) shift(live *history.Indexed, r int) {
	if d.edges != nil {
		d.edges.dropRetired(live)
	}
	// Compact the live tail to the front in place, then make room for the
	// checkpoint at position 0 (r >= 1, so the slices are long enough).
	n := 0
	for p, gi := range d.order {
		if gi >= r {
			d.order[n], d.commit[n] = gi-r+1, d.commit[p]
			n++
		}
	}
	copy(d.order[1:n+1], d.order[:n])
	copy(d.commit[1:n+1], d.commit[:n])
	d.order[0], d.commit[0] = 0, true
	d.order, d.commit, d.pos = d.order[:n+1], d.commit[:n+1], d.pos[:n+1]
	for p, gi := range d.order {
		d.pos[gi] = p
	}
	d.ix = live // the accepting verdict hands out this witness
}
