package recorder

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/dstm"
	"duopacity/internal/stm/engines"
	"duopacity/internal/stm/etl"
	"duopacity/internal/stm/norec"
	"duopacity/internal/stm/ple"
	"duopacity/internal/stm/tl2"
)

func TestRecordsSerialTransaction(t *testing.T) {
	r := New(tl2.New(2))
	tx := r.Begin()
	if tx.ID() != 1 {
		t.Fatalf("first txn id = %d, want 1", tx.ID())
	}
	if v, err := tx.Read(0); err != nil || v != 0 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if err := tx.Write(1, 5); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	h := r.History()
	if h.Len() != 6 {
		t.Fatalf("history length = %d, want 6:\n%s", h.Len(), h)
	}
	tk := h.Txn(1)
	if !tk.Committed() {
		t.Fatal("recorded transaction not committed")
	}
	ops := tk.Ops
	if ops[0].Kind != history.OpRead || ops[0].Obj != "X0" || ops[0].Val != 0 {
		t.Errorf("op0 = %v, want read(X0)->0", ops[0])
	}
	if ops[1].Kind != history.OpWrite || ops[1].Obj != "X1" || ops[1].Arg != 5 {
		t.Errorf("op1 = %v, want write(X1,5)", ops[1])
	}
	if v := spec.CheckDUOpacity(h); !v.OK {
		t.Errorf("recorded serial history not du-opaque: %s", v.Reason)
	}
}

func TestRecordsAbortAsOperationResponse(t *testing.T) {
	// When an engine op returns ErrAborted, the recorded history shows
	// that operation returning A_k, and the transaction is t-complete.
	tm := tl2.New(1)
	r := New(tm)

	victim := r.Begin()
	if _, err := victim.Read(0); err != nil {
		t.Fatalf("read: %v", err)
	}
	// Interfering committed write invalidates the victim's read version.
	if err := r.Atomically(func(tx *Txn) error { return tx.Write(0, 1) }); err != nil {
		t.Fatalf("interferer: %v", err)
	}
	if _, err := victim.Read(0); !errors.Is(err, stm.ErrAborted) {
		t.Fatal("expected the victim's read to abort")
	}
	victim.Abort() // must not add tryA events after the A_k response

	h := r.History()
	tk := h.Txn(1)
	if !tk.Aborted() {
		t.Fatalf("victim not recorded as aborted:\n%s", h)
	}
	last := tk.Ops[len(tk.Ops)-1]
	if last.Kind != history.OpRead || last.Out != history.OutAbort {
		t.Fatalf("last op = %v, want aborted read", last)
	}
	if v := spec.CheckDUOpacity(h); !v.OK {
		t.Errorf("recorded history not du-opaque: %s", v.Reason)
	}
}

func TestRecordsExplicitAbort(t *testing.T) {
	r := New(tl2.New(1))
	tx := r.Begin()
	if err := tx.Write(0, 3); err != nil {
		t.Fatalf("write: %v", err)
	}
	tx.Abort()
	h := r.History()
	tk := h.Txn(1)
	last := tk.Ops[len(tk.Ops)-1]
	if last.Kind != history.OpTryAbort || last.Out != history.OutAbort {
		t.Fatalf("last op = %v, want tryA->A", last)
	}
}

func TestResetClearsEvents(t *testing.T) {
	r := New(tl2.New(1))
	if err := r.Atomically(func(tx *Txn) error { return tx.Write(0, 1) }); err != nil {
		t.Fatalf("txn: %v", err)
	}
	r.Reset()
	if h := r.History(); h.Len() != 0 {
		t.Fatalf("history after reset has %d events", h.Len())
	}
	// Fresh transactions keep getting fresh ids (ids are never reused even
	// across Reset, so recorded histories never collide).
	tx := r.Begin()
	if tx.ID() != 2 {
		t.Fatalf("id after reset = %d, want 2", tx.ID())
	}
	tx.Abort()
}

// TestVarNameMatchesSprintf pins the table-and-strconv VarName to the
// "X%d" form every recorded history and golden file was written with.
func TestVarNameMatchesSprintf(t *testing.T) {
	objs := []int{-1, 1001, 4095, 65536, 1<<31 - 1}
	for i := 0; i <= 1000; i++ {
		objs = append(objs, i)
	}
	for _, obj := range objs {
		if got, want := VarName(obj), history.Var(fmt.Sprintf("X%d", obj)); got != want {
			t.Fatalf("VarName(%d) = %q, want %q", obj, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = VarName(7) }); n != 0 {
		t.Errorf("VarName of a small index allocates %v times", n)
	}
}

// TestRestoreRecordsIdenticalRuns: Restore(eng, 0, 0) leaves the recorder
// as New would return it but for its buffer, and a Restore to the middle
// of a run — with the engine forked there and a transaction in flight
// resumed — records the rest of the run again byte for byte, identifiers
// included.
func TestRestoreRecordsIdenticalRuns(t *testing.T) {
	first := func(r *Recorder) *Txn {
		tx := r.Begin()
		if err := tx.Write(0, 5); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rd := r.Begin()
		if _, err := rd.Read(0); err != nil {
			t.Fatal(err)
		}
		return rd
	}
	rest := func(r *Recorder, rd *Txn) []history.Event {
		if err := rd.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := r.Atomically(func(tx *Txn) error { return tx.Write(0, 6) }); err != nil {
			t.Fatal(err)
		}
		return r.History().Events()
	}
	eng := tl2.New(1)
	r := New(eng)
	rd := first(r)
	mid, lastID := r.Len(), r.LastID()
	out := make([]stm.Txn, 1)
	fork := eng.Fork(nil, []stm.Txn{rd.Inner()}, out)
	whole := rest(r, rd)
	if r.Len() != len(whole) || lastID != rd.ID() {
		t.Fatalf("Len %d, recorded %d; last id %d at the fork, reader %d",
			r.Len(), len(whole), lastID, rd.ID())
	}

	r.Restore(fork, mid, lastID)
	if r.Len() != mid || r.Engine() != fork {
		t.Fatalf("after Restore: %d events, engine replaced: %v", r.Len(), r.Engine() == fork)
	}
	again := rest(r, r.Resume(new(Txn), rd.ID(), out[0]))
	fresh := tl2.New(1)
	r.Restore(fresh, 0, 0)
	again2 := rest(r, first(r))
	for _, got := range [][]history.Event{again, again2} {
		if len(got) != len(whole) {
			t.Fatalf("a restored run recorded %d events, the first %d", len(got), len(whole))
		}
		for i := range whole {
			if got[i] != whole[i] {
				t.Fatalf("event %d: %v after Restore, %v on the first run", i, got[i], whole[i])
			}
		}
	}
}

// orchestrate runs the two-transaction deferred-update probe against an
// engine: a writer writes X0=42, then — while still running — a reader
// reads X0 and commits; finally the writer commits. It returns the
// recorded history.
func orchestrate(e stm.Engine) *history.History {
	r := New(e)
	w := r.Begin()
	_ = w.Write(0, 42)
	rd := r.Begin()
	_, _ = rd.Read(0)
	_ = rd.Commit()
	_ = w.Commit()
	return r.History()
}

func TestPLEViolatesDeferredUpdateDeterministically(t *testing.T) {
	// Reproduces the paper's Section 5 claim about pessimistic STMs: the
	// reader observes the writer's value before the writer invoked tryC,
	// so the recorded history cannot be du-opaque — while it is still
	// final-state opaque (the writer does commit).
	h := orchestrate(ple.New(1))
	du := spec.CheckDUOpacity(h)
	if du.OK {
		t.Fatalf("PLE history unexpectedly du-opaque:\n%s", h)
	}
	fs := spec.CheckFinalStateOpacity(h)
	if !fs.OK {
		t.Fatalf("PLE probe history should be final-state opaque: %s\n%s", fs.Reason, h)
	}
}

func TestDeferredUpdateEnginesPassTheProbe(t *testing.T) {
	for _, e := range []stm.Engine{tl2.New(1), norec.New(1), dstm.New(1)} {
		h := orchestrate(e)
		// The reader must have seen 0, not the uncommitted 42.
		reader := h.Txn(2)
		for _, op := range reader.Ops {
			if op.Kind == history.OpRead && !op.Pending && op.Out == history.OutOK && op.Val != 0 {
				t.Errorf("%s: reader saw uncommitted value %d", e.Name(), op.Val)
			}
		}
		if v := spec.CheckDUOpacity(h); !v.OK {
			t.Errorf("%s: probe history not du-opaque: %s\n%s", e.Name(), v.Reason, h)
		}
	}
}

func TestConcurrentRecordingIsWellFormedAndDUOpaque(t *testing.T) {
	// Hammer a deferred-update engine from several goroutines and certify
	// the recorded episode. Kept small so exact checking is fast.
	for _, name := range []string{"tl2", "norec", "gl"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := engines.New(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			r := New(e)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						_ = r.Atomically(func(tx *Txn) error {
							v, err := tx.Read(w % 4)
							if err != nil {
								return err
							}
							return tx.Write((w+1)%4, v+int64(10*w+i+1))
						})
					}
				}(w)
			}
			wg.Wait()
			h := r.History()
			if !h.Complete() {
				t.Fatal("recorded history has pending operations after all goroutines finished")
			}
			v := spec.CheckDUOpacity(h, spec.WithNodeLimit(2_000_000))
			if v.Undecided {
				t.Skipf("checker undecided after %d nodes", v.Nodes)
			}
			if !v.OK {
				t.Fatalf("%s produced a non-du-opaque history: %s\n%s", name, v.Reason, h)
			}
		})
	}
}

func TestVarName(t *testing.T) {
	if VarName(0) != "X0" || VarName(17) != "X17" {
		t.Fatalf("VarName mapping wrong: %s %s", VarName(0), VarName(17))
	}
}

func TestEngineAccessor(t *testing.T) {
	tm := tl2.New(1)
	r := New(tm)
	if r.Engine() != tm {
		t.Fatal("Engine() does not return the wrapped engine")
	}
}

func TestRecordsWriteAbort(t *testing.T) {
	// An engine write that returns ErrAborted is recorded as the write
	// returning A_k. ETL provides this deterministically: writing an
	// object owned by another transaction aborts.
	tm := etl.New(1)
	r := New(tm)
	owner := r.Begin()
	if err := owner.Write(0, 1); err != nil {
		t.Fatalf("owner write: %v", err)
	}
	victim := r.Begin()
	if err := victim.Write(0, 2); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("victim write = %v, want ErrAborted", err)
	}
	if err := owner.Commit(); err != nil {
		t.Fatalf("owner commit: %v", err)
	}
	h := r.History()
	tv := h.Txn(2)
	if !tv.Aborted() {
		t.Fatalf("victim not aborted in history:\n%s", h)
	}
	last := tv.Ops[len(tv.Ops)-1]
	if last.Kind != history.OpWrite || last.Out != history.OutAbort {
		t.Fatalf("last op = %v, want aborted write", last)
	}
	// Dead transactions reject further recorded operations without
	// emitting events.
	n := h.Len()
	if err := victim.Write(0, 3); !errors.Is(err, stm.ErrAborted) {
		t.Fatal("write on dead txn should return ErrAborted")
	}
	if _, err := victim.Read(0); !errors.Is(err, stm.ErrAborted) {
		t.Fatal("read on dead txn should return ErrAborted")
	}
	if err := victim.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatal("commit on dead txn should return ErrAborted")
	}
	if got := r.History().Len(); got != n {
		t.Fatalf("dead txn emitted events: %d -> %d", n, got)
	}
}

func TestRecordsCommitAbort(t *testing.T) {
	// A tryC that fails is recorded as tryC -> A_k.
	tm := tl2.New(1)
	r := New(tm)
	a := r.Begin()
	if _, err := a.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	// Interfering commit invalidates a's read set.
	if err := r.Atomically(func(tx *Txn) error { return tx.Write(0, 9) }); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("a.Commit = %v, want ErrAborted", err)
	}
	h := r.History()
	ta := h.Txn(1)
	last := ta.Ops[len(ta.Ops)-1]
	if last.Kind != history.OpTryCommit || last.Out != history.OutAbort {
		t.Fatalf("last op = %v, want tryC->A", last)
	}
	// The recorded history with the aborted writer is still du-opaque.
	if v := spec.CheckDUOpacity(h); !v.OK {
		t.Fatalf("history not du-opaque: %s\n%s", v.Reason, h)
	}
}

func TestAtomicallyRetriesAndPropagatesUserError(t *testing.T) {
	tm := tl2.New(1)
	r := New(tm)
	// Retry on conflict: the first attempt aborts at commit.
	attempt := 0
	err := r.Atomically(func(tx *Txn) error {
		attempt++
		if _, err := tx.Read(0); err != nil {
			return err
		}
		if attempt == 1 {
			if err := r.Atomically(func(in *Txn) error { return in.Write(0, 5) }); err != nil {
				return err
			}
		}
		return tx.Write(0, 7)
	})
	if err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if attempt < 2 {
		t.Fatalf("expected a retry, got %d attempts", attempt)
	}
	// Each attempt is a distinct recorded transaction.
	if got := r.History().NumTxns(); got < 3 {
		t.Fatalf("history has %d txns, want >= 3 (retries are fresh txns)", got)
	}
	// User errors abort and propagate without retry.
	boom := errors.New("boom")
	calls := 0
	if err := r.Atomically(func(tx *Txn) error { calls++; return boom }); !errors.Is(err, boom) {
		t.Fatalf("user error = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("user error retried: %d calls", calls)
	}
}

// TestAtomicallyRetriesWrappedAbort: a body that wraps stm.ErrAborted is
// retried like stm.Atomically retries it, each attempt a fresh recorded
// transaction, not handed back to the caller as a user error.
func TestAtomicallyRetriesWrappedAbort(t *testing.T) {
	r := New(tl2.New(1))
	calls := 0
	err := r.Atomically(func(tx *Txn) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("conflict on object 0: %w", stm.ErrAborted)
		}
		return tx.Write(0, 3)
	})
	if err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if calls != 2 {
		t.Fatalf("%d calls, want 2 (the wrapped abort retried once)", calls)
	}
	if got := r.History().NumTxns(); got != 2 {
		t.Fatalf("history has %d txns, want 2", got)
	}
}
