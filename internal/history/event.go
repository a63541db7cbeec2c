// Package history implements the transactional-memory execution model of
// Attiya, Hans, Kuznetsov and Ravi, "Safety of Deferred Update in
// Transactional Memory" (ICDCS 2013), Section 2.
//
// A history is a sequence of invocation and response events of
// t-operations. Each transaction T_k issues t-operations read_k(X),
// write_k(X, v), tryC_k() and tryA_k(); an operation either returns a value
// (reads), ok (writes), C_k (commit) or the special abort value A_k.
//
// The package provides:
//
//   - Event, History: the raw event-sequence model with well-formedness
//     validation (histories must be well-formed, Section 2);
//   - TxnInfo, Op: the per-transaction view H|k with operation matching;
//   - real-time order, overlap, live sets (Lset_H(T)) and the live-set
//     precedence used by Lemma 4;
//   - completions of a history (Definition 2);
//   - Seq: t-complete t-sequential histories with the latest-written-value
//     legality check, used by the checkers in package spec as candidate
//     serializations.
//
// The imaginary initial transaction T_0 that writes the initial value to
// every t-object is never materialized: t-objects implicitly start at
// InitValue, and T_0 is treated as committed before every event.
package history

import (
	"fmt"
	"strconv"
)

// TxnID identifies a transaction. ID 0 is reserved for the imaginary
// initial transaction T_0 and never appears in a history.
type TxnID int

// Var names a transactional object (t-object).
type Var string

// Value is the domain V of values stored in t-objects.
type Value int64

// InitTxn is the reserved identifier of the imaginary initial transaction
// T_0 which writes InitValue to every t-object and commits before any other
// transaction begins.
const InitTxn TxnID = 0

// InitValue is the initial value of every t-object, written by T_0.
const InitValue Value = 0

// OpKind enumerates the four t-operations of the model.
type OpKind uint8

const (
	// OpRead is read_k(X): returns a value in V or A_k.
	OpRead OpKind = iota + 1
	// OpWrite is write_k(X, v): returns ok_k or A_k.
	OpWrite
	// OpTryCommit is tryC_k(): returns C_k or A_k.
	OpTryCommit
	// OpTryAbort is tryA_k(): returns A_k.
	OpTryAbort
)

// String returns the conventional name of the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTryCommit:
		return "tryC"
	case OpTryAbort:
		return "tryA"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// EventKind distinguishes invocation from response events.
type EventKind uint8

const (
	// Inv is an invocation event.
	Inv EventKind = iota + 1
	// Res is a response event.
	Res
)

// String returns "inv" or "res".
func (k EventKind) String() string {
	switch k {
	case Inv:
		return "inv"
	case Res:
		return "res"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Outcome is the result carried by a response event.
type Outcome uint8

const (
	// OutOK means the operation succeeded: a read returned a value, or a
	// write returned ok_k.
	OutOK Outcome = iota + 1
	// OutCommit is C_k, returned only by tryC_k().
	OutCommit
	// OutAbort is A_k, which may be returned by any t-operation and makes
	// the transaction aborted (t-complete).
	OutAbort
)

// String returns "ok", "C" or "A".
func (o Outcome) String() string {
	switch o {
	case OutOK:
		return "ok"
	case OutCommit:
		return "C"
	case OutAbort:
		return "A"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Event is a single invocation or response event of a t-operation.
//
// Field usage by (Kind, Op):
//
//	Inv  read   : Txn, Obj
//	Inv  write  : Txn, Obj, Arg
//	Inv  tryC   : Txn
//	Inv  tryA   : Txn
//	Res  read   : Txn, Obj, Out (OutOK with Val, or OutAbort)
//	Res  write  : Txn, Obj, Arg, Out (OutOK or OutAbort)
//	Res  tryC   : Txn, Out (OutCommit or OutAbort)
//	Res  tryA   : Txn, Out (OutAbort)
type Event struct {
	Kind EventKind
	Op   OpKind
	Txn  TxnID
	Obj  Var
	Arg  Value   // argument of a write
	Val  Value   // value returned by a successful read
	Out  Outcome // response events only
}

// String renders the event in the paper's notation, e.g. "inv read_2(X)" or
// "res read_2(X)->1" or "res tryC_1->C".
func (e Event) String() string {
	var buf [48]byte
	return string(e.AppendText(buf[:0]))
}

// AppendText appends String's rendering to b. For the declared kinds,
// operations and outcomes it allocates nothing beyond b's growth: the
// follow echo renders every accepted event through it.
func (e Event) AppendText(b []byte) []byte {
	if e.Kind == Inv {
		b = append(b, "inv "...)
	} else {
		b = append(b, "res "...)
	}
	b = append(b, e.Op.String()...)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(e.Txn), 10)
	if e.Op == OpRead || e.Op == OpWrite {
		b = append(b, '(')
		b = append(b, e.Obj...)
		if e.Op == OpWrite {
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(e.Arg), 10)
		}
		b = append(b, ')')
	}
	if e.Kind == Inv {
		return b
	}
	b = append(b, "->"...)
	if e.Op == OpRead && e.Out == OutOK {
		return strconv.AppendInt(b, int64(e.Val), 10)
	}
	return append(b, e.Out.String()...)
}

// matches reports whether r is a well-formed response to invocation i.
func (r Event) matches(i Event) bool {
	if r.Kind != Res || i.Kind != Inv || r.Txn != i.Txn || r.Op != i.Op {
		return false
	}
	switch r.Op {
	case OpRead:
		return r.Obj == i.Obj && (r.Out == OutOK || r.Out == OutAbort)
	case OpWrite:
		return r.Obj == i.Obj && r.Arg == i.Arg && (r.Out == OutOK || r.Out == OutAbort)
	case OpTryCommit:
		return r.Out == OutCommit || r.Out == OutAbort
	case OpTryAbort:
		return r.Out == OutAbort
	default:
		return false
	}
}
