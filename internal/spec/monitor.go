package spec

import (
	"fmt"

	"duopacity/internal/history"
)

// Monitor checks a criterion online while a history is being produced —
// the use the paper's Section 5 envisions for a constructive correctness
// condition. Prefix closure (Corollary 2 for du-opacity; Definition 5 for
// opacity) makes monitoring sound: once a prefix is rejected, every
// extension is rejected, so the monitor latches the violation.
//
// The monitor rides the streaming ingestion core (history.Stream): each
// event is validated in O(1) amortized time and folded into the live
// history and its incrementally maintained index — unlike the
// pre-stream monitor, which re-ran history.FromEvents over the whole
// event log at every append. The witness Seq carried by the returned
// Verdict is materialized copy-on-write into monitor-owned buffers:
// t-complete transactions alias their (now immutable) observed
// operations, and only live transactions are completed into reusable
// scratch. A clean response on the fast path therefore allocates
// nothing once the buffers are warm. The flip side is an ownership rule:
// the Verdict's Serialization is valid only until the next Append;
// callers that retain witnesses across events must copy them.
//
// With WithRetirement(window) the monitor also bounds its *memory*: once
// the live history holds 2*window transactions it retires a settled
// prefix — t-complete transactions that real-time precede everything
// still running, whose final committed value per object is forced the
// same way in every serialization — replacing it with a single committed
// checkpoint transaction that writes those values. Prefix closure
// (Corollary 2) makes the cut sound and the forced-state condition makes
// it exact (see DESIGN.md): the verdict stream is identical to an
// unretired monitor's, but state and per-event cost stay O(live window)
// over arbitrarily long runs.
//
// Verdict work happens only at response events (appending an invocation
// to an accepted history preserves acceptance: the new pending operation
// is aborted by every completion without constraining legality, and a new
// pending tryC only adds completion choices — for TMS2 a tryC invocation
// can add conflict-order edges, which the monitor records immediately but
// enforces from the next response prefix on; see NewMonitor). At a
// response, the monitor
// maintains a witness serialization order incrementally instead of
// searching:
//
//   - transactions enter the witness order at the end when they first
//     appear, which can never violate real-time order (nothing real-time
//     precedes a transaction that just performed its first event except
//     transactions already placed earlier);
//   - a response that aborts a transaction the witness already aborts, or
//     commits one it already commits, adds no constraint;
//   - a successful write by a live transaction installs nothing until its
//     tryC commits, so it only needs the witness re-materialized;
//   - a value-returning external read is checked — alone — against the
//     committed writers placed before its transaction (both the latest
//     committed value and the deferred-update local-serialization value);
//   - only commit-decision flips (a pending tryC resolving against the
//     witness's guess) trigger a full re-validation of the order, and
//     only its failure falls back to the exhaustive search.
//
// Appending a malformed event returns an error and leaves the monitor
// completely unchanged (the stream's rejection is side-effect-free), so a
// monitor can skip one bad event and keep consuming the stream.
//
// A Monitor must be fed from one goroutine at a time; use an external
// lock (e.g. the recorder's capture mutex, see recorder.Recorder.Tap) to
// monitor concurrent executions.
type Monitor struct {
	crit Criterion
	opts options
	// recheckOpts is the resolved option set recheck hands to the batch
	// decision procedure: the monitor's node limit and context only —
	// never e.g. its retirement window — built once so the hot path
	// allocates nothing for it.
	recheckOpts options

	st      *history.Stream
	verdict Verdict
	// latched is set once a violation is definitive (prefix closure).
	latched bool
	// searches and fastHits count full searches vs. incremental witness
	// reuses, for introspection and benchmarks.
	searches int
	fastHits int

	// The incrementally maintained witness: a serialization order over
	// dense transaction indexes with per-position commit decisions. It
	// certifies the history observed so far whenever verdict.OK and
	// witnessOK both hold (witnessOK only drops on defensive paths that
	// should be unreachable; the search then re-establishes it).
	order     []int
	commit    []bool
	pos       []int // dense txn index -> position in order
	witnessOK bool

	// undecidedPrefix records the first response prefix whose opacity
	// check hit the node limit. Monitored opacity decides "every prefix
	// final-state opaque" by induction over accepted prefixes; a skipped
	// (undecided) prefix breaks the induction permanently, so the monitor
	// stays undecided from then on instead of reporting a definitive OK
	// it cannot justify. Unused for the other criteria, which are
	// properties of the current history alone.
	undecidedPrefix string

	// edges maintains the criterion's extra conflict-order constraints
	// incrementally (TMS2 / RCO only, nil otherwise): standing edges feed
	// every full search, edges added since the last recheck are validated
	// against the witness on the fast path. See monitor_edges.go.
	edges *edgeTracker
	// localReads selects the read-legality the fast path enforces:
	// du-opacity checks each external read against both the latest
	// committed writer placed before it and the deferred-update local
	// serialization; the other criteria need only the former, and
	// checking both would reject valid witnesses adopted from their
	// weaker searches, degrading the fast path to a search per event.
	localReads bool

	// seq and seqOps are the copy-on-write witness materialization owned
	// by the monitor (see materialize): seq is the Seq handed out via
	// Verdict.Serialization, seqOps the per-position completion scratch
	// for transactions that are not yet t-complete.
	seq    history.Seq
	seqOps [][]history.Op

	// totalEvents and retired count everything the monitor has observed,
	// including what windowed retirement has discarded from the live
	// stream.
	totalEvents int
	retired     int
}

// ckptTxn is the transaction identifier reserved for the retirement
// checkpoint: the committed transaction that replaces a retired prefix,
// writing the prefix's forced final committed values. At most one exists
// at a time (a retirement always swallows the previous checkpoint, which
// sits at dense index 0), so one reserved identifier suffices. A monitor
// with retirement enabled rejects events carrying it.
const ckptTxn history.TxnID = -1

// NewMonitor returns a monitor for the given criterion. The supported
// criteria are exactly MonitorableCriteria(): du-opacity and opacity are
// prefix-closed by the paper's Corollary 2 and Definition 5, and
// final-state opacity, TMS2 and RCO are monitored as the latched property
// "every response prefix observed so far satisfies the criterion" —
// prefix-closed by construction, and equal to the batch verdict at every
// response prefix up to and including the first violation. (The
// distinction matters only for TMS2 with the aborted-reader exemption,
// whose edge removals can heal a batch violation in a later prefix; a
// latched monitor keeps reporting the violation it proved.) TMS2 edges
// appear at tryC invocations; the monitor, which recomputes verdicts only
// at responses, enforces them from the next response prefix on — batch
// verdicts at response prefixes are unaffected.
func NewMonitor(c Criterion, opts ...Option) (*Monitor, error) {
	if !Monitorable(c) {
		return nil, fmt.Errorf("spec: criterion %v not supported by the monitor (monitorable criteria: %s)", c, MonitorableNames())
	}
	m := &Monitor{crit: c, opts: buildOptions(opts), st: history.NewStream(), witnessOK: true}
	m.localReads = c == DUOpacity
	if c == TMS2 || c == RCO {
		m.edges = newEdgeTracker(c, m.opts.tms2AbortedExemption, m.opts.retireWindow > 0)
	}
	// Deadline/cancellation propagation (spec.WithContext on the monitor):
	// a cancelled context turns further rechecks into prompt undecided
	// verdicts instead of full searches.
	m.recheckOpts = options{nodeLimit: m.opts.nodeLimit, ctx: m.opts.ctx}
	m.verdict = Verdict{Criterion: c, OK: true, Serialization: &history.Seq{}}
	return m, nil
}

// Stats reports how many full searches and incremental witness reuses the
// monitor has performed.
func (m *Monitor) Stats() (searches, fastHits int) {
	return m.searches, m.fastHits
}

// History returns a snapshot of the live history: everything observed so
// far, minus any prefix windowed retirement has replaced by its
// checkpoint transaction (T_-1). Without WithRetirement it is the whole
// observed history.
func (m *Monitor) History() *history.History { return m.st.History() }

// Len returns the number of events observed so far, including events of
// retired transactions no longer in the live history.
func (m *Monitor) Len() int { return m.totalEvents }

// Retired returns the number of observed transactions that windowed
// retirement has replaced by a checkpoint. Zero without WithRetirement.
func (m *Monitor) Retired() int { return m.retired }

// LiveTxns returns the number of transactions in the live history
// (including the retirement checkpoint, when one exists).
func (m *Monitor) LiveTxns() int { return m.st.NumTxns() }

// Verdict returns the verdict for the history observed so far.
func (m *Monitor) Verdict() Verdict { return m.verdict }

// Append observes one event and returns the updated verdict. It returns
// an error (leaving the monitor unchanged) when the event would make the
// history ill-formed, or when retirement is enabled and the event
// carries the reserved checkpoint transaction identifier.
//
// The returned Verdict's Serialization is owned by the monitor and valid
// only until the next Append; copy it to retain a witness across events.
func (m *Monitor) Append(e history.Event) (Verdict, error) {
	if m.opts.retireWindow > 0 && e.Txn == ckptTxn {
		return m.verdict, fmt.Errorf("spec: transaction id %d is reserved for the monitor's retirement checkpoint", ckptTxn)
	}
	if err := m.st.Append(e); err != nil {
		return m.verdict, err
	}
	m.totalEvents++
	if m.latched {
		// Prefix closure: the violation is permanent. Keep the original
		// refutation.
		return m.verdict, nil
	}
	if m.edges != nil {
		// Fold the event into the incremental edge state before any
		// verdict work — TMS2 edges appear at tryC invocations, RCO edges
		// and TMS2 exemption removals at tryC responses.
		m.edges.observe(m.st.Live().Index(), e)
	}
	if e.Kind == history.Inv {
		// Invocation events cannot break acceptance; the verdict carries
		// over (the witness order catches up at the next response).
		return m.verdict, nil
	}
	m.verdict = m.recheck(e)
	if !m.verdict.OK && !m.verdict.Undecided {
		m.latched = true
	} else if m.verdict.OK {
		m.maybeRetire()
	}
	return m.verdict, nil
}

// recheck computes the verdict after response event e, trying the
// incremental witness first. The fast path validates the witness against
// the monitored criterion's own conditions — read legality (plus the
// deferred-update local condition for du-opacity only, see localReads)
// and, for TMS2/RCO, the conflict-order edges added since the last
// recheck — so a fast hit certifies exactly; any failure falls through to
// the exhaustive search, which decides exactly.
func (m *Monitor) recheck(e history.Event) Verdict {
	h := m.st.Live()
	if m.crit == Opacity && m.undecidedPrefix != "" {
		// A skipped prefix can never be revisited; opacity of the stream
		// stays undecidable (see undecidedPrefix).
		return Verdict{Criterion: Opacity, Undecided: true, Reason: m.undecidedPrefix}
	}
	ix := h.Index()
	if m.verdict.OK && m.witnessOK && m.fastRecheck(ix, e) {
		m.fastHits++
		if m.edges != nil {
			m.edges.clearPending()
		}
		return Verdict{Criterion: m.crit, OK: true, Serialization: m.materialize(ix)}
	}
	m.searches++
	if m.edges != nil {
		// The search enforces the whole standing edge set; nothing stays
		// pending past it, whatever the outcome.
		defer m.edges.clearPending()
	}
	var v Verdict
	switch m.crit {
	case DUOpacity:
		v = decide(h, DUOpacity, searchMode{local: true, realTime: true}, m.recheckOpts)
	case FinalStateOpacity:
		v = decide(h, FinalStateOpacity, searchMode{realTime: true}, m.recheckOpts)
	case TMS2, RCO:
		// Like final-state opacity, a property of the current history
		// alone — with the incrementally maintained conflict-order edges
		// as extra constraints, exactly the batch checkers' edge sets.
		v = decide(h, m.crit, searchMode{realTime: true, extraEdges: m.edges.edges}, m.recheckOpts)
	default:
		// Opacity: every response prefix seen so far was accepted (or the
		// monitor would have latched, or undecidedPrefix would be set),
		// so final-state opacity of the current history decides opacity
		// incrementally. (Batch CheckOpacity has seen no earlier prefix;
		// it vouches for them through du-opacity instead, Theorem 10.)
		v = decide(h, FinalStateOpacity, searchMode{realTime: true}, m.recheckOpts)
		v.Criterion = Opacity
		if v.Undecided {
			m.undecidedPrefix = fmt.Sprintf("prefix of length %d: %s", h.Len(), v.Reason)
			v.Reason = m.undecidedPrefix
		} else if !v.OK {
			v.Reason = fmt.Sprintf("prefix of length %d is not final-state opaque: %s", h.Len(), v.Reason)
		}
	}
	if v.OK && v.Serialization != nil {
		m.adoptWitness(ix, v.Serialization)
	}
	return v
}

// syncOrder appends transactions that entered the history since the last
// response to the end of the witness order. A fresh transaction has a
// single pending operation — no reads to justify, no installed writes —
// and nothing real-time precedes it that is not already placed, so the
// extension is always valid.
func (m *Monitor) syncOrder(ix *history.Indexed) {
	for gi := len(m.pos); gi < ix.NumTxns(); gi++ {
		m.pos = append(m.pos, len(m.order))
		m.order = append(m.order, gi)
		m.commit = append(m.commit, false)
	}
}

// adoptWitness replaces the incremental witness with the order and commit
// decisions of a search-produced serialization.
func (m *Monitor) adoptWitness(ix *history.Indexed, s *history.Seq) {
	n := ix.NumTxns()
	m.order = m.order[:0]
	m.commit = m.commit[:0]
	m.pos = m.pos[:0]
	if len(s.Txns) != n {
		// The search witnesses of the monitorable criteria place every
		// transaction; anything else cannot seed the incremental state.
		m.witnessOK = false
		return
	}
	for i := 0; i < n; i++ {
		m.pos = append(m.pos, 0)
	}
	for i := range s.Txns {
		ti := ix.TxnIndexOf(s.Txns[i].ID)
		if ti < 0 {
			m.order, m.commit, m.pos = m.order[:0], m.commit[:0], m.pos[:0]
			m.witnessOK = false
			return
		}
		m.pos[ti] = i
		m.order = append(m.order, ti)
		m.commit = append(m.commit, s.Txns[i].Committed())
	}
	m.witnessOK = true
}

// fastRecheck decides whether the witness order, incrementally updated,
// still certifies the history extended by response event e. It reports
// false when only the exhaustive search can decide.
func (m *Monitor) fastRecheck(ix *history.Indexed, e history.Event) bool {
	m.syncOrder(ix)
	if m.edges != nil && !m.edges.pendingOK(ix, m.pos) {
		// A conflict-order edge added since the last recheck is violated
		// by the standing witness order; only the search (which enforces
		// the whole edge set) can decide. Standing edges need no per-event
		// check: they were validated when pending, and witness positions
		// only change through adoptWitness, which re-validates everything.
		return false
	}
	gi := ix.TxnIndexOf(e.Txn)
	if gi < 0 {
		return false
	}
	it := &ix.Txns[gi]
	p := m.pos[gi]
	switch {
	case e.Op == history.OpTryCommit && e.Out == history.OutCommit:
		if m.commit[p] {
			return true // the witness had already committed the pending tryC
		}
		// Flip to committed: the transaction's writes enter the stacks at
		// its position; re-validate the whole order.
		m.commit[p] = true
		if m.revalidate(ix) {
			return true
		}
		m.commit[p] = false
		return false
	case e.Out != history.OutOK:
		// A_k on any operation. The witness aborts live transactions, so
		// an abort adds no constraint — unless it had committed a
		// commit-pending transaction that now aborted.
		if !m.commit[p] {
			return true
		}
		m.commit[p] = false
		if m.revalidate(ix) {
			return true
		}
		m.commit[p] = true
		return false
	case e.Op == history.OpRead:
		// A value-returning read. An own-write read constrains nothing
		// once consistent; BadReadOp >= 0 here means e just made the
		// transaction internally inconsistent (earlier inconsistencies
		// would have latched) — let the search produce the exact reason.
		if it.BadReadOp >= 0 {
			return false
		}
		if n := len(it.Reads); n > 0 && it.Reads[n-1].ResIdx == m.st.Len()-1 {
			return m.checkRead(ix, p, it.Reads[n-1])
		}
		return true
	case e.Op == history.OpWrite:
		// A successful write by a (necessarily live) transaction installs
		// nothing until its tryC commits; if the witness somehow commits
		// it already, fall back to a full re-validation.
		if !m.commit[p] {
			return true
		}
		return m.revalidate(ix)
	default:
		return false
	}
}

// checkRead verifies one external value-returning read of the transaction
// at position readerPos against the committed writers placed before it:
// the latest committed write to the object must be the value read
// (legality) and — when the monitored criterion is du-opacity
// (localReads) — so must the latest one whose tryC invocation precedes
// the read's response in H (the deferred-update local serialization),
// with T_0's InitValue as the base case for both.
func (m *Monitor) checkRead(ix *history.Indexed, readerPos int, r history.IndexedRead) bool {
	top := history.InitValue
	local := history.InitValue
	for q := 0; q < readerPos; q++ {
		if !m.commit[q] {
			continue
		}
		wt := &ix.Txns[m.order[q]]
		for wi := range wt.Writes {
			w := &wt.Writes[wi]
			if w.Obj > r.Obj {
				break // Writes are sorted by object index
			}
			if w.Obj == r.Obj {
				top = w.Val
				if wt.TryCInv >= 0 && wt.TryCInv < r.ResIdx {
					local = w.Val
				}
			}
		}
	}
	if m.localReads && local != r.Val {
		return false
	}
	return top == r.Val
}

// revalidate re-checks the whole witness order: commit decisions against
// transaction roles, and every external read via checkRead. It runs only
// when a commit decision flips (or defensively), not on the per-event
// fast path.
func (m *Monitor) revalidate(ix *history.Indexed) bool {
	for p, gi := range m.order {
		it := &ix.Txns[gi]
		if it.Committed && !m.commit[p] {
			return false
		}
		if m.commit[p] && !(it.Committed || it.CommitPending) {
			return false
		}
		for _, r := range it.Reads {
			if !m.checkRead(ix, p, r) {
				return false
			}
		}
	}
	return true
}

// materialize builds the Seq for the current witness order copy-on-write
// into the monitor-owned buffers: a t-complete transaction's operations
// are immutable from its last response on, so its SeqTxn aliases the
// observed H|k directly; only transactions that still need a completion
// (Definition 2) are copied into per-position scratch and completed
// there. On the fast path of a clean response this allocates nothing
// once the buffers have grown to the live-window size. The returned Seq
// is valid until the next Append.
func (m *Monitor) materialize(ix *history.Indexed) *history.Seq {
	n := len(m.order)
	if cap(m.seq.Txns) < n {
		m.seq.Txns = make([]history.SeqTxn, n)
	}
	m.seq.Txns = m.seq.Txns[:n]
	for len(m.seqOps) < n {
		m.seqOps = append(m.seqOps, nil)
	}
	for pos, gi := range m.order {
		it := &ix.Txns[gi]
		t := it.Info
		if it.TComplete {
			m.seq.Txns[pos] = history.SeqTxn{ID: t.ID, Ops: t.Ops}
			continue
		}
		buf := append(m.seqOps[pos][:0], t.Ops...)
		switch {
		case it.CommitPending:
			last := &buf[len(buf)-1]
			last.Pending = false
			if m.commit[pos] {
				last.Out = history.OutCommit
			} else {
				last.Out = history.OutAbort
			}
		case !it.Complete:
			// Pending read, write or tryA: completed with A_k.
			last := &buf[len(buf)-1]
			last.Pending = false
			last.Out = history.OutAbort
		default:
			// Complete but not t-complete: synthetic tryC·A_k.
			buf = append(buf, history.Op{Kind: history.OpTryCommit, Out: history.OutAbort, InvIndex: -1, ResIndex: -1})
		}
		m.seqOps[pos] = buf
		m.seq.Txns[pos] = history.SeqTxn{ID: t.ID, Ops: buf}
	}
	return &m.seq
}

// maybeRetire attempts a windowed retirement after an accepting response.
// It looks for the largest settled prefix — contiguous t-complete
// transactions behind a real-time barrier whose per-object final
// committed state is forced — and retires it when it is worth a rebuild
// (at least half a window). Soundness and exactness are argued in
// DESIGN.md ("Windowed retirement").
func (m *Monitor) maybeRetire() {
	w := m.opts.retireWindow
	if w <= 0 || !m.verdict.OK || m.latched {
		return
	}
	ix := m.st.Live().Index()
	n := ix.NumTxns()
	if n < 2*w {
		return
	}
	min := w / 2
	if min < 1 {
		min = 1
	}
	limit := n
	for {
		r := m.settledPrefix(ix, limit)
		if r < min {
			return
		}
		sigma, bound := m.forcedState(ix, r)
		if bound < 0 {
			m.retire(ix, r, sigma)
			return
		}
		// The final committed value of some object is not forced with the
		// transaction at index bound included; shrink the prefix past it
		// and retry. The loop terminates: limit strictly decreases.
		limit = bound
	}
}

// settledPrefix returns the largest r <= limit such that transactions
// [0,r) are all t-complete and sit behind a real-time barrier: every one
// of them finished before the first event of transaction r (dense order
// is first-appearance order, so transaction r's first event bounds every
// live and future transaction's). Such a prefix real-time precedes
// everything still running or yet to come, so any serialization of any
// extension must place it first, as a block.
func (m *Monitor) settledPrefix(ix *history.Indexed, limit int) int {
	n := ix.NumTxns()
	if limit > n {
		limit = n
	}
	best := 0
	maxLast := -1
	for i := 0; i < limit; i++ {
		it := &ix.Txns[i]
		if maxLast < it.First {
			best = i
		}
		if !it.TComplete {
			return best
		}
		if it.Last > maxLast {
			maxLast = it.Last
		}
	}
	if limit == n {
		// Every transaction is t-complete: the whole history is settled.
		return n
	}
	if maxLast < ix.Txns[limit].First {
		return limit
	}
	return best
}

// forcedState computes the retired prefix's final committed state. For
// each object the candidate is its highest-indexed committed writer wl
// below r; the state is forced when every other committed writer of the
// object in the prefix real-time precedes wl, so every serialization
// (all respect real-time order) installs wl's value last. When some
// committed writer overlaps wl instead, the final value is ambiguous —
// a future read could legally observe either order — and forcedState
// returns that wl as the bound the prefix must shrink below (the
// barrier recheck in settledPrefix then also excludes the overlapping
// writer). InitValue writes are dropped from sigma: a checkpoint write
// of the initial value is indistinguishable from T_0's.
func (m *Monitor) forcedState(ix *history.Indexed, r int) (sigma []history.IndexedWrite, bound int) {
	for oi := range ix.Writers {
		wl := -1
		ix.Writers[oi].Range(func(wr int) bool {
			if wr >= r {
				return false
			}
			if ix.Txns[wr].Committed {
				wl = wr
			}
			return true
		})
		if wl < 0 {
			continue
		}
		first := ix.Txns[wl].First
		conflict := false
		ix.Writers[oi].Range(func(wr int) bool {
			if wr >= wl {
				return false
			}
			if ix.Txns[wr].Committed && ix.Txns[wr].Last >= first {
				conflict = true
				return false
			}
			return true
		})
		if conflict {
			return nil, wl
		}
		for _, wv := range ix.Txns[wl].Writes {
			if wv.Obj == oi {
				if wv.Val != history.InitValue {
					sigma = append(sigma, history.IndexedWrite{Obj: oi, Val: wv.Val})
				}
				break
			}
		}
	}
	return sigma, -1
}

// retire replaces the settled prefix [0,r) by a checkpoint transaction
// committing sigma, rebuilding the live stream from the checkpoint's
// events followed by the live transactions' events (the real-time
// barrier guarantees the prefix's events and the live events do not
// interleave, so the suffix of the event log from transaction r's first
// event is exactly the live transactions' history). The incremental
// witness carries over by index shift — the barrier forces every
// witness to place the retired prefix first, so its live tail plus the
// checkpoint at position 0 is a witness for the rebuilt stream — and no
// search is needed.
func (m *Monitor) retire(ix *history.Indexed, r int, sigma []history.IndexedWrite) {
	old := m.st.Live()
	n := ix.NumTxns()
	firstLive := old.Len()
	if r < n {
		firstLive = ix.Txns[r].First
	}
	ns := history.NewStream()
	ok := func(err error) bool { return err == nil }
	for _, wv := range sigma {
		obj := ix.Objs[wv.Obj]
		if !ok(ns.Append(history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: ckptTxn, Obj: obj, Arg: wv.Val})) ||
			!ok(ns.Append(history.Event{Kind: history.Res, Op: history.OpWrite, Txn: ckptTxn, Obj: obj, Arg: wv.Val, Out: history.OutOK})) {
			return
		}
	}
	if !ok(ns.Append(history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: ckptTxn})) ||
		!ok(ns.Append(history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: ckptTxn, Out: history.OutCommit})) {
		return
	}
	for i := firstLive; i < old.Len(); i++ {
		if !ok(ns.Append(old.At(i))) {
			// Unreachable: the suffix was valid in the old stream and the
			// checkpoint prefix cannot invalidate other transactions'
			// events. Abandon the retirement; the old stream is untouched.
			return
		}
	}
	for i := 0; i < r; i++ {
		if ix.TxnIDs[i] != ckptTxn {
			m.retired++
		}
	}
	m.st = ns
	nix := ns.Live().Index()
	if m.edges != nil {
		// Edges touching retired transactions are discarded: the barrier's
		// real-time order subsumes retired-to-live edges, and the others
		// were frozen-satisfied by the witness that accepted the prefix.
		m.edges.dropRetired(nix)
	}
	if m.witnessOK && len(m.order) == n {
		// Index shift: retired entries occupy the first r witness
		// positions (the barrier forces them first); the tail maps to the
		// rebuilt stream's dense indexes offset by the checkpoint.
		order := make([]int, 0, n-r+1)
		commit := make([]bool, 0, n-r+1)
		order = append(order, 0)
		commit = append(commit, true)
		for p, gi := range m.order {
			if gi >= r {
				order = append(order, gi-r+1)
				commit = append(commit, m.commit[p])
			}
		}
		pos := make([]int, len(order))
		for p, gi := range order {
			pos[gi] = p
		}
		m.order, m.commit, m.pos = order, commit, pos
		m.verdict.Serialization = m.materialize(nix)
	} else {
		// Defensive: without a full witness the incremental state cannot
		// shift; drop it and let the next response search.
		m.order, m.commit, m.pos = m.order[:0], m.commit[:0], m.pos[:0]
		m.witnessOK = false
	}
}
