package spec

import (
	"context"
	"fmt"
	"sync"

	"duopacity/internal/history"
)

// Session checks any number of monitorable criteria online over one
// history. Every criterion is a predicate over the same H, and
// well-formedness (the paper's Section 2) does not depend on which is
// asked, so the session owns the one streaming ingestion core
// (history.Stream): each event is validated in O(1) amortized time and
// folded into the live history and its incrementally maintained index
// exactly once, and each criterion keeps only a decider — witness order,
// conflict-order edges, latch — that reads the shared index. Prefix
// closure (Corollary 2 for du-opacity; Definition 5 for opacity) makes
// monitoring sound: once a prefix is rejected, every extension is
// rejected, so a decider latches its violation.
//
// Verdict work happens only at response events: an invocation appended
// to an accepted history preserves acceptance (see decider.step).
//
// An accepting verdict hands out its decider's witness order as is and
// renders nothing (Verdict.Witness builds the Seq when asked), so a clean
// response on the fast path allocates nothing. The flip side is an
// ownership rule: the verdict slice Append returns is overwritten at the
// next Append, and the Witness of a verdict in it must be asked for before
// the next Append or Rewind — the decider's order moves on, and a later
// call panics rather than render another witness.
//
// Rewind(n) takes the session back to the first n events — the one
// operation a consumer that walks many continuations of a shared prefix
// (the schedule explorer) needs — by undoing the stream and restricting
// each witness, the construction of the paper's Lemma 1; see there.
//
// With WithRetirement(window) the session also bounds its *memory*: it
// replaces a settled prefix by a single committed checkpoint transaction
// (see WithRetirement; soundness by Corollary 2, exactness by the
// forced-state condition, both in DESIGN.md), so state and per-event cost
// stay O(live window) over arbitrarily long runs. The conditions read
// only the history, so they are tested once per response and the stream
// is rebuilt once, whatever the number of criteria.
//
// A session's stream storage comes from a pool: Release hands it back for
// a later session to reuse, and a session that is never released simply
// leaves it to the garbage collector.
//
// Appending a malformed event returns an error and leaves the session
// completely unchanged (the stream's rejection is side-effect-free and no
// decider is consulted), so a session can skip one bad event and keep
// consuming the stream. A Session must be fed from one goroutine at a
// time; to monitor a concurrent execution, feed it from the recorder's
// log (recorder.Recorder.AppendEvents), which linearizes the events.
type Session struct {
	retireWindow int
	// nodeLimit and ctx are what a recheck hands to the batch decision
	// procedure, and all of the options it may see.
	nodeLimit int
	ctx       context.Context

	st *history.Stream
	// spare is the stream a retirement rebuilds into before the two swap
	// (nil until the first retirement), so that retiring reuses storage.
	spare *history.Stream
	// pooled: the streams come from streamPool, which Release hands them
	// back to (a Session's); a Monitor's are its own.
	pooled   bool
	deciders []decider
	// verdicts is the slice Append hands out, refreshed in place (nil for
	// the one-criterion Monitor, which reads its decider directly).
	verdicts []Verdict

	// totalEvents and retired count everything observed, including what
	// windowed retirement has discarded from the live stream.
	totalEvents int
	retired     int

	// probeRefused: maybeRetire's last probe found no prefix to retire and
	// no transaction has t-completed since, so the next would find the same
	// (see there). probes and probesSkipped count the probes run and the
	// ones that memory saved.
	probeRefused          bool
	probes, probesSkipped int
	// sigma is the probes' forced-state scratch (see forcedState).
	sigma []history.IndexedWrite
	// invs is Rewind's scratch: the invocations it appends again.
	invs []history.Event
}

// Counters says what a session's per-response work touched, beside how
// often it ran (Stats): the commit-decision flips and the moves of a
// transaction to the end of its witness that its deciders tried on the
// fast path, the reads those re-validated, and the retirement probes
// (settled prefix + forced state) run and skipped as unchanged.
type Counters struct {
	Flips, Moves, ReadsRechecked      int
	RetireProbes, RetireProbesSkipped int
}

// ckptTxn is the transaction identifier reserved for the retirement
// checkpoint: the committed transaction that replaces a retired prefix,
// writing the prefix's forced final committed values. At most one exists
// at a time (a retirement always swallows the previous checkpoint, which
// sits at dense index 0), so one reserved identifier suffices. A session
// with retirement enabled rejects events carrying it.
const ckptTxn history.TxnID = -1

// NewSession returns a session deciding the given criteria, each one of
// MonitorableCriteria() (see NewMonitor for what each is monitored as).
func NewSession(criteria []Criterion, opts ...Option) (*Session, error) {
	s := &Session{pooled: true}
	if err := s.init(criteria, opts); err != nil {
		return nil, err
	}
	s.verdicts = make([]Verdict, len(criteria))
	s.Verdicts()
	return s, nil
}

func (s *Session) init(criteria []Criterion, opts []Option) error {
	for _, c := range criteria {
		if !Monitorable(c) {
			return fmt.Errorf("spec: criterion %v not supported by the monitor (monitorable criteria: %s)", c, MonitorableNames())
		}
	}
	o := buildOptions(opts)
	s.retireWindow = o.retireWindow
	// With spec.WithContext a cancelled context turns further rechecks
	// into prompt undecided verdicts instead of full searches.
	s.nodeLimit, s.ctx = o.nodeLimit, o.ctx
	s.st = s.newStream()
	s.deciders = make([]decider, len(criteria))
	for i, c := range criteria {
		d := &s.deciders[i]
		d.crit, d.localReads, d.diedAt = c, c == DUOpacity, -1
		if c == TMS2 || c == RCO {
			d.edges = newEdgeTracker(c, o.tms2AbortedExemption)
		}
		d.verdict = d.accepted(s.st.Live().Index())
	}
	return nil
}

// streamPool holds the live-indexed streams released sessions handed back.
var streamPool = sync.Pool{New: func() any { return history.NewStream() }}

// newStream returns an empty live-indexed stream: for a Session one from
// streamPool, reset, for a Monitor a new one, which it keeps.
func (s *Session) newStream() *history.Stream {
	if !s.pooled {
		return history.NewStream()
	}
	st := streamPool.Get().(*history.Stream)
	st.Truncate(0)
	return st
}

// Release hands the session's streams back to the pool for a later session
// to reuse, and ends the session: it must not be appended to or rewound
// again. Stats, Counters, Retired and every verdict's status stay
// readable. A verdict's Witness (and an accepting verdict's String)
// panics from now on, whether the verdict was handed out before or is
// asked for through Verdicts: the stream it would render from may be
// another session's by then. History snapshots taken before stay valid.
// A second Release does nothing.
func (s *Session) Release() {
	if s.st == nil {
		return
	}
	for i := range s.deciders {
		s.deciders[i].gen++ // no verdict, handed out or standing, matches it
	}
	streamPool.Put(s.st)
	if s.spare != nil {
		streamPool.Put(s.spare)
	}
	s.st, s.spare = nil, nil
}

// Stats reports the deciders' full searches and incremental witness reuses.
func (s *Session) Stats() (searches, fastHits int) {
	for i := range s.deciders {
		searches += s.deciders[i].searches
		fastHits += s.deciders[i].fastHits
	}
	return searches, fastHits
}

// Counters reports the deciders' flips and moves and the session's
// retirement probes.
func (s *Session) Counters() Counters {
	c := Counters{RetireProbes: s.probes, RetireProbesSkipped: s.probesSkipped}
	for i := range s.deciders {
		c.Flips += s.deciders[i].flips
		c.Moves += s.deciders[i].moves
		c.ReadsRechecked += s.deciders[i].readsRechecked
	}
	return c
}

// Retired returns the number of observed transactions that windowed
// retirement has replaced by a checkpoint (zero without WithRetirement),
// LiveTxns the number in the live history, the checkpoint included (not
// after Release).
func (s *Session) Retired() int  { return s.retired }
func (s *Session) LiveTxns() int { return s.st.NumTxns() }

// Verdicts returns the current verdicts, as the last Append did.
func (s *Session) Verdicts() []Verdict {
	for i := range s.deciders {
		s.verdicts[i] = s.deciders[i].verdict
	}
	return s.verdicts
}

// Append observes one event and returns the updated verdicts, one per
// criterion in NewSession order, in a slice the session owns and
// overwrites at the next Append; ask for a verdict's Witness before the
// next Append or Rewind (see there). It returns an error (leaving the session
// unchanged) when the event would make the history ill-formed or, with
// retirement on, carries the reserved checkpoint transaction identifier.
func (s *Session) Append(e history.Event) ([]Verdict, error) {
	err := s.append(e)
	return s.Verdicts(), err
}

func (s *Session) append(e history.Event) error {
	if s.retireWindow > 0 && e.Txn == ckptTxn {
		return fmt.Errorf("spec: transaction id %d is reserved for the monitor's retirement checkpoint", ckptTxn)
	}
	if err := s.st.Append(e); err != nil {
		return err
	}
	s.totalEvents++
	h, ro := s.st.Live(), options{nodeLimit: s.nodeLimit, ctx: s.ctx}
	for i := range s.deciders {
		s.deciders[i].step(h, e, ro)
	}
	if e.Kind == history.Res && s.retireWindow > 0 {
		if e.Out != history.OutOK {
			s.probeRefused = false // C_k or A_k: a transaction t-completed
		}
		s.maybeRetire()
	}
	return nil
}

// Rewind takes the session back to the first n events it observed, as if
// the rest had never been appended: the stream is truncated (a dropped
// transaction identifier is free again) and every verdict is the one a
// session fed only those n events reports — same OK, Undecided and Reason;
// the witness may be a different valid one. Stats and Counters stay
// cumulative.
//
// That equality holds while no search is cut short by the node limit
// (WithNodeLimit) or the context: a rewound decider may run a search where
// the never-rewound one had a fast hit, or have a fast hit where the other
// searched, so only then can Undecided — never an OK or a violation —
// appear on one side and not on the other. For opacity an Undecided
// latches like a violation does.
//
// Verdicts are defined at response prefixes, so the deciders are
// re-anchored (decider.rewind: the restricted witness of Lemma 1, placed
// like any offered order on the decider's held engine, the exact search
// where that fails) at the last response prefix within the n events, and
// the invocations behind it are appended again. Once its scratch has grown
// to the session's sizes, a rewind that needs no search allocates nothing. A decider that died at one of the surviving events stays latched;
// one that died later is live again.
//
// It returns an error, leaving the session untouched, when n is out of
// range or the session has retired anything: those events are gone by
// design (WithRetirement), and the checkpoint that replaced them cannot
// be split.
func (s *Session) Rewind(n int) error {
	if s.retired > 0 {
		return fmt.Errorf("spec: cannot rewind a session that has retired %d transactions: their events are gone", s.retired)
	}
	h := s.st.Live()
	if n < 0 || n > h.Len() {
		return fmt.Errorf("spec: rewind to length %d out of range [0,%d]", n, h.Len())
	}
	if n == h.Len() {
		return nil
	}
	m := n
	for m > 0 && h.At(m-1).Kind == history.Inv {
		m--
	}
	s.invs = s.invs[:0]
	for i := m; i < n; i++ {
		s.invs = append(s.invs, h.At(i))
	}
	s.st.Truncate(m)
	s.totalEvents = m
	s.probeRefused = false // the probe's inputs are no longer the ones it refused
	ro := options{nodeLimit: s.nodeLimit, ctx: s.ctx}
	for i := range s.deciders {
		s.deciders[i].rewind(h, ro)
	}
	for _, e := range s.invs {
		if err := s.append(e); err != nil {
			return err // unreachable: the stream accepted e after these same m events
		}
	}
	return nil
}

// maybeRetire attempts a windowed retirement after a response: it looks
// for the largest settled prefix — contiguous t-complete transactions
// behind a real-time barrier whose per-object final committed state is
// forced — and retires it when that is worth a rebuild (at least half a
// window). Soundness and exactness are argued in DESIGN.md ("Windowed
// retirement"; "One follow session" for the vote).
//
// The probe below the vote reads only t-complete transactions (their
// First, Last, Committed and Writes, all final) and the first event of the
// one that ends the prefix, so a probe that found nothing to retire finds
// nothing again until another transaction t-completes; it is skipped
// until then (DESIGN.md, "What a flip can change").
func (s *Session) maybeRetire() {
	w := s.retireWindow
	ix := s.st.Live().Index()
	n := ix.NumTxns()
	if n < 2*w {
		return
	}
	// The vote: every live decider must accept with a witness placing all
	// n transactions, which shift then carries over. Dead deciders do not
	// vote, so a latched criterion cannot pin the session's memory; an
	// undecided live one only delays the retirement, which is exact
	// whenever it happens.
	for i := range s.deciders {
		if d := &s.deciders[i]; !d.dead() && !(d.verdict.OK && len(d.order) == n) {
			return
		}
	}
	if s.probeRefused {
		s.probesSkipped++
		return
	}
	s.probes++
	limit := n
	for {
		r := settledPrefix(ix, limit)
		if r < max(w/2, 1) {
			s.probeRefused = true
			return
		}
		var bound int
		s.sigma, bound = forcedState(ix, r, s.sigma[:0])
		if bound < 0 {
			s.retire(ix, r, s.sigma)
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
func settledPrefix(ix *history.Indexed, limit int) int {
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
// of the initial value is indistinguishable from T_0's. The state is
// appended to sigma, the caller's scratch.
func forcedState(ix *history.Indexed, r int, sigma []history.IndexedWrite) ([]history.IndexedWrite, int) {
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
			return sigma, wl
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
// event is exactly the live transactions' history). The rebuild goes into
// the session's spare stream, and the two then swap: the old one is the
// spare of the next retirement. Every live decider then carries its
// witness and edges over (see decider.shift).
func (s *Session) retire(ix *history.Indexed, r int, sigma []history.IndexedWrite) {
	old := s.st.Live()
	firstLive := old.Len()
	if r < ix.NumTxns() {
		firstLive = ix.Txns[r].First
	}
	if s.spare == nil {
		s.spare = s.newStream()
	}
	ns := s.spare
	ns.Truncate(0)
	ns.Grow(2*len(sigma) + 2 + old.Len() - firstLive)
	for _, wv := range sigma {
		obj := ix.Objs[wv.Obj]
		if ns.Append(history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: ckptTxn, Obj: obj, Arg: wv.Val}) != nil ||
			ns.Append(history.Event{Kind: history.Res, Op: history.OpWrite, Txn: ckptTxn, Obj: obj, Arg: wv.Val, Out: history.OutOK}) != nil {
			return
		}
	}
	if ns.Append(history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: ckptTxn}) != nil ||
		ns.Append(history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: ckptTxn, Out: history.OutCommit}) != nil {
		return
	}
	for i := firstLive; i < old.Len(); i++ {
		if ns.Append(old.At(i)) != nil {
			// Unreachable: the suffix was valid in the old stream and the
			// checkpoint prefix cannot invalidate other transactions'
			// events. Abandon the retirement; the old stream is untouched.
			return
		}
	}
	for i := 0; i < r; i++ {
		if ix.TxnIDs[i] != ckptTxn {
			s.retired++
		}
	}
	s.st, s.spare = ns, s.st
	nix := ns.Live().Index()
	for i := range s.deciders {
		if d := &s.deciders[i]; !d.dead() {
			d.shift(nix, r)
		}
	}
}
