package history

import (
	"errors"
	"fmt"
)

// Op is a t-operation as seen in the per-transaction view H|k: a matched
// invocation/response pair, or a pending invocation (Pending == true, in
// which case Out and Val are meaningless and ResIndex is -1).
type Op struct {
	Kind    OpKind
	Obj     Var   // read/write only
	Arg     Value // write argument
	Val     Value // read result when Out == OutOK
	Out     Outcome
	Pending bool
	// InvIndex and ResIndex are positions of the invocation and response
	// events in the enclosing history (ResIndex == -1 while pending).
	InvIndex int
	ResIndex int
}

// String renders the operation in the paper's notation.
func (o Op) String() string {
	switch {
	case o.Pending && (o.Kind == OpRead):
		return fmt.Sprintf("read(%s)->?", o.Obj)
	case o.Pending && o.Kind == OpWrite:
		return fmt.Sprintf("write(%s,%d)->?", o.Obj, o.Arg)
	case o.Pending:
		return fmt.Sprintf("%s->?", o.Kind)
	case o.Kind == OpRead && o.Out == OutOK:
		return fmt.Sprintf("read(%s)->%d", o.Obj, o.Val)
	case o.Kind == OpRead:
		return fmt.Sprintf("read(%s)->%s", o.Obj, o.Out)
	case o.Kind == OpWrite:
		return fmt.Sprintf("write(%s,%d)->%s", o.Obj, o.Arg, o.Out)
	default:
		return fmt.Sprintf("%s->%s", o.Kind, o.Out)
	}
}

// TxnInfo is the analyzed per-transaction view H|k.
type TxnInfo struct {
	ID  TxnID
	Ops []Op // operations in H|k order; at most the last one is pending

	// First and Last are the indexes in H of the first and last event of the
	// transaction.
	First int
	Last  int

	// TryCInv and TryCRes are the indexes in H of the tryC invocation and
	// response events, or -1 when absent. TryCInv is the pivot of the
	// deferred-update condition: a transaction may only be read from once
	// its tryC invocation has occurred.
	TryCInv int
	TryCRes int
}

var (
	errReservedTxn    = errors.New("transaction id 0 is reserved for T_0")
	errAfterTComplete = errors.New("event after transaction is t-complete")
	errPendingOp      = errors.New("invocation while another operation is pending")
	errOrphanResponse = errors.New("response without matching pending invocation")
	errAfterTry       = errors.New("operation invoked after tryC/tryA")
)

// checkExtend reports whether event e may legally extend the view. It is
// pure: rejected events leave the view untouched, which the streaming
// ingestion path (Stream.Append) relies on to make rejection
// side-effect-free.
func (t *TxnInfo) checkExtend(e Event) error {
	if n := len(t.Ops); n > 0 {
		last := &t.Ops[n-1]
		if !last.Pending && last.Out != OutOK {
			return errAfterTComplete // already ended with A_k or C_k
		}
		if e.Kind == Inv {
			if last.Pending {
				return errPendingOp
			}
			if last.Kind == OpTryCommit || last.Kind == OpTryAbort {
				return errAfterTry
			}
		} else {
			if !last.Pending {
				return errOrphanResponse
			}
			inv := Event{Kind: Inv, Op: last.Kind, Txn: t.ID, Obj: last.Obj, Arg: last.Arg}
			if !e.matches(inv) {
				return fmt.Errorf("%w: response %v does not match pending %v", errOrphanResponse, e, *last)
			}
		}
	} else if e.Kind == Res {
		return errOrphanResponse
	}
	return nil
}

// applyExtend incorporates event e (at history index i) into the view. The
// event must have passed checkExtend.
func (t *TxnInfo) applyExtend(i int, e Event) {
	t.Last = i
	if e.Kind == Res {
		last := &t.Ops[len(t.Ops)-1]
		last.Pending = false
		last.Out = e.Out
		last.Val = e.Val
		last.ResIndex = i
		if last.Kind == OpTryCommit {
			t.TryCRes = i
		}
		return
	}
	t.Ops = append(t.Ops, Op{
		Kind:     e.Op,
		Obj:      e.Obj,
		Arg:      e.Arg,
		Pending:  true,
		InvIndex: i,
		ResIndex: -1,
	})
	if e.Op == OpTryCommit {
		t.TryCInv = i
	}
}

// Events reconstructs the event subsequence H|k.
func (t *TxnInfo) Events() []Event {
	evs := make([]Event, 0, 2*len(t.Ops))
	for _, op := range t.Ops {
		evs = append(evs, Event{Kind: Inv, Op: op.Kind, Txn: t.ID, Obj: op.Obj, Arg: op.Arg})
		if !op.Pending {
			evs = append(evs, Event{Kind: Res, Op: op.Kind, Txn: t.ID, Obj: op.Obj, Arg: op.Arg, Val: op.Val, Out: op.Out})
		}
	}
	return evs
}

// Complete reports whether the transaction is complete in H: H|k ends with
// a response event.
func (t *TxnInfo) Complete() bool {
	return len(t.Ops) > 0 && !t.Ops[len(t.Ops)-1].Pending
}

// PendingOp returns the pending operation, if any.
func (t *TxnInfo) PendingOp() (Op, bool) {
	if n := len(t.Ops); n > 0 && t.Ops[n-1].Pending {
		return t.Ops[n-1], true
	}
	return Op{}, false
}

// TComplete reports whether the transaction is t-complete: H|k ends with
// A_k or C_k.
func (t *TxnInfo) TComplete() bool {
	if n := len(t.Ops); n > 0 {
		last := t.Ops[n-1]
		return !last.Pending && last.Out != OutOK
	}
	return false
}

// Committed reports whether the transaction committed (last event C_k).
func (t *TxnInfo) Committed() bool {
	if n := len(t.Ops); n > 0 {
		last := t.Ops[n-1]
		return !last.Pending && last.Out == OutCommit
	}
	return false
}

// Aborted reports whether the transaction aborted (last event A_k).
func (t *TxnInfo) Aborted() bool {
	if n := len(t.Ops); n > 0 {
		last := t.Ops[n-1]
		return !last.Pending && last.Out == OutAbort
	}
	return false
}

// CommitPending reports whether the transaction has an incomplete tryC
// operation — the case in which a completion of the history (Definition 2)
// may either commit or abort it.
func (t *TxnInfo) CommitPending() bool {
	if n := len(t.Ops); n > 0 {
		last := t.Ops[n-1]
		return last.Pending && last.Kind == OpTryCommit
	}
	return false
}

// ReadSet returns Rset(T_k): the t-objects the transaction reads
// (operations that completed with a value; pending and aborted reads are
// excluded).
func (t *TxnInfo) ReadSet() map[Var]bool {
	s := make(map[Var]bool)
	for _, op := range t.Ops {
		if op.Kind == OpRead && !op.Pending && op.Out == OutOK {
			s[op.Obj] = true
		}
	}
	return s
}

// WriteSet returns Wset(T_k): the t-objects the transaction writes with a
// completed, successful write.
func (t *TxnInfo) WriteSet() map[Var]bool {
	s := make(map[Var]bool)
	for _, op := range t.Ops {
		if op.Kind == OpWrite && !op.Pending && op.Out == OutOK {
			s[op.Obj] = true
		}
	}
	return s
}

// LastWrites returns, for each t-object the transaction wrote successfully,
// the value of its latest write — the value the transaction commits if it
// commits.
func (t *TxnInfo) LastWrites() map[Var]Value {
	m := make(map[Var]Value)
	for _, op := range t.Ops {
		if op.Kind == OpWrite && !op.Pending && op.Out == OutOK {
			m[op.Obj] = op.Arg
		}
	}
	return m
}
