package chaos

import (
	"math/rand"

	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
)

// JunkSource generates stream faults: events that a well-formed
// history.Stream (and hence spec.Monitor) must reject against its current
// state. It shadows the accepted event sequence — feed every event the
// stream actually admitted through Observe — and Junk draws a
// guaranteed-rejected event from the applicable fault classes:
//
//   - reserved-txn: an event naming transaction 0, the reserved T_0
//   - orphan-response: a response for a transaction that never invoked
//   - duplicate-response: the last accepted response replayed (its
//     operation already completed)
//   - inv-after-complete: an invocation by a t-complete transaction
//   - double-inv: a second invocation while one operation is pending
//
// Because every generated event is rejected, the shadow never diverges
// from the real stream, and a driver can assert the exact accounting
// injected == rejected. Duplication of *invocation* events and reordering
// of valid events are deliberately out of scope for the generator: those
// mutations can be accepted by a well-formed stream (they are different
// histories, not junk), so they cannot carry a rejection guarantee.
type JunkSource struct {
	rng        *rand.Rand
	maxID      history.TxnID
	pending    map[history.TxnID]bool
	curPending history.TxnID // most recent still-pending invoker (0 = none)
	complete   []history.TxnID
	isComplete map[history.TxnID]bool
	lastRes    history.Event
	hasRes     bool
	injected   int
}

// NewJunkSource returns a generator with its own seeded schedule.
func NewJunkSource(seed int64) *JunkSource {
	return &JunkSource{
		rng:        lazyrand.New(int64(splitmix64(uint64(seed)))),
		pending:    make(map[history.TxnID]bool),
		isComplete: make(map[history.TxnID]bool),
	}
}

// Observe updates the shadow with an event the stream accepted. Events
// the stream rejected (including everything Junk returns) must not be
// observed.
func (j *JunkSource) Observe(e history.Event) {
	if e.Txn > j.maxID {
		j.maxID = e.Txn
	}
	if e.Kind == history.Inv {
		j.pending[e.Txn] = true
		j.curPending = e.Txn
		return
	}
	j.pending[e.Txn] = false
	if j.curPending == e.Txn {
		j.curPending = 0
	}
	j.lastRes, j.hasRes = e, true
	// A_k on any operation, and any tryC/tryA response, t-completes.
	if e.Out == history.OutAbort || e.Op == history.OpTryCommit || e.Op == history.OpTryAbort {
		if !j.isComplete[e.Txn] {
			j.isComplete[e.Txn] = true
			j.complete = append(j.complete, e.Txn)
		}
	}
}

// Injected returns how many junk events Junk has produced.
func (j *JunkSource) Injected() int { return j.injected }

// Junk returns an event the shadowed stream must reject, plus the fault
// class it was drawn from. At least the reserved-txn class is always
// applicable, so Junk never fails.
func (j *JunkSource) Junk() (history.Event, string) {
	type candidate struct {
		class string
		ev    history.Event
	}
	cands := []candidate{{
		"reserved-txn",
		history.Event{Kind: history.Inv, Op: history.OpRead, Txn: history.InitTxn, Obj: "X0"},
	}, {
		"orphan-response",
		history.Event{Kind: history.Res, Op: history.OpRead, Txn: j.maxID + 1000 + history.TxnID(j.rng.Intn(64)),
			Obj: "X0", Val: history.Value(j.rng.Int63()), Out: history.OutOK},
	}}
	if j.hasRes && !j.pending[j.lastRes.Txn] {
		// Replaying the last response is only guaranteed-rejected while its
		// transaction has no pending operation the duplicate could answer.
		cands = append(cands, candidate{"duplicate-response", j.lastRes})
	}
	if len(j.complete) > 0 {
		k := j.complete[j.rng.Intn(len(j.complete))]
		cands = append(cands, candidate{"inv-after-complete",
			history.Event{Kind: history.Inv, Op: history.OpRead, Txn: k, Obj: "X0"}})
	}
	if j.curPending != 0 && j.pending[j.curPending] {
		cands = append(cands, candidate{"double-inv",
			history.Event{Kind: history.Inv, Op: history.OpRead, Txn: j.curPending, Obj: "X0"}})
	}
	c := cands[j.rng.Intn(len(cands))]
	j.injected++
	return c.ev, c.class
}
