package history

import "fmt"

// Builder constructs histories event by event, validating well-formedness
// incrementally. The op-level helpers (Read, Write, Commit, ...) emit an
// invocation immediately followed by its response — the common case in
// litmus histories — while the Inv*/Res* pairs place the two events at
// arbitrary distance to express concurrency.
//
// Builder methods panic on malformed sequences: a malformed fixture is a
// programming error, not an input error. Use FromEvents (or a Stream) for
// untrusted input.
//
// Builder is a thin wrapper over the streaming ingestion core (Stream),
// so fixtures are validated and indexed exactly as streamed input.
type Builder struct {
	s *Stream
}

// NewBuilder returns an empty Builder. Like the other batch wrappers it
// skips live index maintenance: the histories it finalizes are indexed
// on first use.
func NewBuilder() *Builder {
	return &Builder{s: newStreamOver(&History{})}
}

func (b *Builder) push(e Event) *Builder {
	if err := b.s.Append(e); err != nil {
		panic(fmt.Sprintf("history: builder: %v", err))
	}
	return b
}

// InvRead emits the invocation of read_k(X).
func (b *Builder) InvRead(k TxnID, x Var) *Builder {
	return b.push(Event{Kind: Inv, Op: OpRead, Txn: k, Obj: x})
}

// ResRead emits the response of read_k(X) returning v.
func (b *Builder) ResRead(k TxnID, x Var, v Value) *Builder {
	return b.push(Event{Kind: Res, Op: OpRead, Txn: k, Obj: x, Val: v, Out: OutOK})
}

// ResReadAbort emits the response of read_k(X) returning A_k.
func (b *Builder) ResReadAbort(k TxnID, x Var) *Builder {
	return b.push(Event{Kind: Res, Op: OpRead, Txn: k, Obj: x, Out: OutAbort})
}

// InvWrite emits the invocation of write_k(X, v).
func (b *Builder) InvWrite(k TxnID, x Var, v Value) *Builder {
	return b.push(Event{Kind: Inv, Op: OpWrite, Txn: k, Obj: x, Arg: v})
}

// ResWrite emits the ok response of write_k(X, v).
func (b *Builder) ResWrite(k TxnID, x Var, v Value) *Builder {
	return b.push(Event{Kind: Res, Op: OpWrite, Txn: k, Obj: x, Arg: v, Out: OutOK})
}

// ResWriteAbort emits the A_k response of write_k(X, v).
func (b *Builder) ResWriteAbort(k TxnID, x Var, v Value) *Builder {
	return b.push(Event{Kind: Res, Op: OpWrite, Txn: k, Obj: x, Arg: v, Out: OutAbort})
}

// InvTryCommit emits the invocation of tryC_k().
func (b *Builder) InvTryCommit(k TxnID) *Builder {
	return b.push(Event{Kind: Inv, Op: OpTryCommit, Txn: k})
}

// ResCommit emits the C_k response of tryC_k().
func (b *Builder) ResCommit(k TxnID) *Builder {
	return b.push(Event{Kind: Res, Op: OpTryCommit, Txn: k, Out: OutCommit})
}

// ResCommitAbort emits the A_k response of tryC_k().
func (b *Builder) ResCommitAbort(k TxnID) *Builder {
	return b.push(Event{Kind: Res, Op: OpTryCommit, Txn: k, Out: OutAbort})
}

// InvTryAbort emits the invocation of tryA_k().
func (b *Builder) InvTryAbort(k TxnID) *Builder {
	return b.push(Event{Kind: Inv, Op: OpTryAbort, Txn: k})
}

// ResAbort emits the A_k response of tryA_k().
func (b *Builder) ResAbort(k TxnID) *Builder {
	return b.push(Event{Kind: Res, Op: OpTryAbort, Txn: k, Out: OutAbort})
}

// Read emits read_k(X) -> v as an adjacent invocation/response pair.
func (b *Builder) Read(k TxnID, x Var, v Value) *Builder {
	return b.InvRead(k, x).ResRead(k, x, v)
}

// Write emits write_k(X, v) -> ok as an adjacent pair.
func (b *Builder) Write(k TxnID, x Var, v Value) *Builder {
	return b.InvWrite(k, x, v).ResWrite(k, x, v)
}

// Commit emits tryC_k() -> C_k as an adjacent pair.
func (b *Builder) Commit(k TxnID) *Builder {
	return b.InvTryCommit(k).ResCommit(k)
}

// CommitAbort emits tryC_k() -> A_k as an adjacent pair.
func (b *Builder) CommitAbort(k TxnID) *Builder {
	return b.InvTryCommit(k).ResCommitAbort(k)
}

// Abort emits tryA_k() -> A_k as an adjacent pair.
func (b *Builder) Abort(k TxnID) *Builder {
	return b.InvTryAbort(k).ResAbort(k)
}

// Len returns the number of events emitted so far.
func (b *Builder) Len() int { return b.s.Len() }

// History finalizes the builder into an immutable History. The builder may
// continue to be used afterwards; later events do not affect the returned
// history.
func (b *Builder) History() *History {
	return b.s.History()
}
