package history

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// History is a well-formed (finite) sequence of invocation and response
// events. The zero value is the empty history. Histories are immutable once
// built; construct them with a Builder, FromEvents, or incrementally with a
// Stream.
type History struct {
	events []Event

	// txns caches the per-transaction analysis; it is computed eagerly by
	// FromEvents so that History values can be shared across goroutines
	// without synchronization.
	txns map[TxnID]*TxnInfo
	ids  []TxnID // transaction ids in order of first appearance

	// idx caches the dense Indexed view. Histories built by NewStream
	// carry the incrementally maintained live index; batch-built
	// histories (FromEvents, Prefix, Builder, snapshots) are indexed on
	// first use (Index), by the same indexer run over their events.
	idxOnce sync.Once
	idx     *Indexed
}

// FromEvents validates evs as a well-formed history and returns it.
// The slice is copied; the caller keeps ownership of evs.
//
// Well-formedness (Section 2): for every transaction T_k, H|k is sequential
// (each invocation is last in H|k or immediately followed by its matching
// response), has no events after A_k or C_k, and tryC/tryA invocations are
// not followed by further invocations of the same transaction.
//
// FromEvents is the batch entry to the stream core (Stream): validation
// is the same incremental pass Append performs per event; indexing stays
// lazy (done on first use) since many batch-built histories are never
// checked.
func FromEvents(evs []Event) (*History, error) {
	h := &History{events: append([]Event(nil), evs...)}
	if err := newStreamOver(h).replay(); err != nil {
		return nil, err
	}
	return h, nil
}

// MustFromEvents is FromEvents that panics on malformed input; intended for
// tests and fixtures.
func MustFromEvents(evs []Event) *History {
	h, err := FromEvents(evs)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the number of events in the history.
func (h *History) Len() int { return len(h.events) }

// At returns the event at index i.
func (h *History) At(i int) Event { return h.events[i] }

// Events returns a copy of the event sequence.
func (h *History) Events() []Event { return append([]Event(nil), h.events...) }

// Txns returns the identifiers of the transactions participating in the
// history, in order of first appearance. The returned slice is a copy.
func (h *History) Txns() []TxnID { return append([]TxnID(nil), h.ids...) }

// NumTxns returns |txns(H)|.
func (h *History) NumTxns() int { return len(h.ids) }

// Txn returns the per-transaction view H|k, or nil if T_k does not
// participate in the history.
func (h *History) Txn(k TxnID) *TxnInfo { return h.txns[k] }

// Prefix returns the prefix of the history consisting of its first n
// events. Prefixes of well-formed histories are well-formed.
func (h *History) Prefix(n int) *History {
	if n < 0 || n > len(h.events) {
		panic(fmt.Sprintf("history: prefix length %d out of range [0,%d]", n, len(h.events)))
	}
	p := &History{events: h.events[:n:n]}
	if err := newStreamOver(p).replay(); err != nil {
		// A prefix of a well-formed history is always well-formed.
		panic(fmt.Sprintf("history: prefix unexpectedly malformed: %v", err))
	}
	return p
}

// Complete reports whether all transactions in the history are complete
// (every H|k ends with a response event).
func (h *History) Complete() bool {
	for _, k := range h.ids {
		if !h.txns[k].Complete() {
			return false
		}
	}
	return true
}

// TComplete reports whether all transactions are t-complete (every H|k ends
// with A_k or C_k).
func (h *History) TComplete() bool {
	for _, k := range h.ids {
		if !h.txns[k].TComplete() {
			return false
		}
	}
	return true
}

// TSequential reports whether no two transactions overlap in the history.
func (h *History) TSequential() bool {
	for i, k := range h.ids {
		for _, m := range h.ids[i+1:] {
			if h.Overlap(k, m) {
				return false
			}
		}
	}
	return true
}

// Equivalent reports whether h and g are equivalent: txns(H) = txns(G) and
// H|k = G|k for every transaction.
func (h *History) Equivalent(g *History) bool {
	if len(h.ids) != len(g.ids) {
		return false
	}
	for _, k := range h.ids {
		tg := g.txns[k]
		th := h.txns[k]
		if tg == nil || len(tg.Ops) != len(th.Ops) {
			return false
		}
		for i := range th.Ops {
			if !sameOp(th.Ops[i], tg.Ops[i]) {
				return false
			}
		}
	}
	return true
}

// sameOp compares two operations as elements of H|k, ignoring their event
// positions in the enclosing histories.
func sameOp(a, b Op) bool {
	if a.Kind != b.Kind || a.Obj != b.Obj || a.Arg != b.Arg || a.Pending != b.Pending {
		return false
	}
	if a.Pending {
		return true
	}
	return a.Out == b.Out && (a.Kind != OpRead || a.Out != OutOK || a.Val == b.Val)
}

// String renders the history one event per line.
func (h *History) String() string {
	var b strings.Builder
	for i, e := range h.events {
		fmt.Fprintf(&b, "%3d  %s\n", i, e)
	}
	return b.String()
}

// Vars returns the sorted set of t-objects accessed in the history.
func (h *History) Vars() []Var {
	seen := make(map[Var]bool)
	for _, e := range h.events {
		if e.Op == OpRead || e.Op == OpWrite {
			seen[e.Obj] = true
		}
	}
	vars := make([]Var, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return vars
}
