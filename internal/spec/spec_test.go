package spec

import (
	"strings"
	"testing"

	"duopacity/internal/history"
)

// serialWriteRead is the simplest legal history: T1 writes and commits,
// then T2 reads the value and commits.
func serialWriteRead() *history.History {
	return history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 1).Commit(2).
		History()
}

func TestCheckDUOpacityAcceptsSerial(t *testing.T) {
	v := CheckDUOpacity(serialWriteRead())
	if !v.OK {
		t.Fatalf("du-opacity rejected a serial legal history: %s", v.Reason)
	}
	if v.Witness() == nil {
		t.Fatal("no witness serialization")
	}
	if ord := v.Witness().Order(); ord[0] != 1 || ord[1] != 2 {
		t.Errorf("witness order = %v, want [1 2]", ord)
	}
	if err := v.Witness().Legal(); err != nil {
		t.Errorf("witness not legal: %v", err)
	}
	if err := v.Witness().MatchesCompletionOf(serialWriteRead()); err != nil {
		t.Errorf("witness does not match a completion: %v", err)
	}
}

func TestCheckDUOpacityRejectsWrongValue(t *testing.T) {
	h := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 7).Commit(2).
		History()
	v := CheckDUOpacity(h)
	if v.OK {
		t.Fatal("du-opacity accepted a read of a never-written value")
	}
	if !strings.Contains(v.Reason, "no possible source") {
		t.Errorf("reason = %q, want mention of missing source", v.Reason)
	}
}

func TestCheckDUOpacityRejectsReadFromPreTryC(t *testing.T) {
	// T2 reads T1's value before T1 invokes tryC: final-state opaque
	// (T1 does commit) but a deferred-update violation.
	h := history.NewBuilder().
		InvWrite(1, "X", 1).ResWrite(1, "X", 1).
		Read(2, "X", 1).Commit(2).
		Commit(1).
		History()
	du := CheckDUOpacity(h)
	if du.OK {
		t.Fatal("du-opacity accepted a read from a transaction that had not started committing")
	}
	if !strings.Contains(du.Reason, "deferred update") {
		t.Errorf("reason = %q, want deferred-update explanation", du.Reason)
	}
	fs := CheckFinalStateOpacity(h)
	if !fs.OK {
		t.Fatalf("final-state opacity should accept: %s", fs.Reason)
	}
}

func TestCheckDUOpacityCommitPendingChoice(t *testing.T) {
	// T1's tryC is pending; T2 read its value after the tryC invocation.
	// A completion committing T1 makes the history du-opaque.
	h := history.NewBuilder().
		Write(1, "X", 1).InvTryCommit(1).
		Read(2, "X", 1).Commit(2).
		History()
	v := CheckDUOpacity(h)
	if !v.OK {
		t.Fatalf("du-opacity rejected commit-pending source: %s", v.Reason)
	}
	// The witness must commit T1.
	for _, st := range v.Witness().Txns {
		if st.ID == 1 && !st.Committed() {
			t.Error("witness does not commit T1")
		}
	}
}

func TestCheckDUOpacityRealTimeOrder(t *testing.T) {
	// T1 reads 1 and fully precedes T2, which writes 1: the only legal
	// order inverts real time, so every real-time-respecting criterion
	// rejects, while plain serializability accepts.
	h := history.NewBuilder().
		Read(1, "X", 1).Commit(1).
		Write(2, "X", 1).Commit(2).
		History()
	for _, c := range []Criterion{DUOpacity, Opacity, FinalStateOpacity, StrictSerializability} {
		if v := Check(h, c); v.OK {
			t.Errorf("%s accepted a real-time inversion", c)
		}
	}
	if v := CheckSerializability(h); !v.OK {
		t.Errorf("serializability should accept the inverted order: %s", v.Reason)
	}
}

func TestCheckDUOpacityAbortedWriterInvisible(t *testing.T) {
	h := history.NewBuilder().
		Write(1, "X", 1).CommitAbort(1).
		Read(2, "X", 1).Commit(2).
		History()
	if v := CheckDUOpacity(h); v.OK {
		t.Fatal("du-opacity accepted a read from an aborted transaction")
	}
	if v := CheckFinalStateOpacity(h); v.OK {
		t.Fatal("final-state opacity accepted a read from an aborted transaction")
	}
}

func TestCheckDUOpacityOwnWrites(t *testing.T) {
	h := history.NewBuilder().
		Write(1, "X", 5).Read(1, "X", 5).Commit(1).
		History()
	if v := CheckDUOpacity(h); !v.OK {
		t.Fatalf("own-write read rejected: %s", v.Reason)
	}
	bad := history.NewBuilder().
		Write(1, "X", 5).Read(1, "X", 6).CommitAbort(1).
		History()
	if v := CheckDUOpacity(bad); v.OK {
		t.Fatal("own-write mismatch accepted")
	}
}

func TestCheckDUOpacityAbortedReaderChecked(t *testing.T) {
	// Reads by transactions that later abort must still be consistent
	// (that is the whole point of opacity-style criteria).
	h := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 0).Read(2, "Y", 9).Abort(2).
		History()
	if v := CheckDUOpacity(h); v.OK {
		t.Fatal("aborted reader with impossible value accepted")
	}
	// But a consistent aborted reader is fine: T2 must serialize before T1.
	ok := history.NewBuilder().
		InvWrite(1, "X", 1).
		Read(2, "X", 0).Abort(2).
		ResWrite(1, "X", 1).Commit(1).
		History()
	if v := CheckDUOpacity(ok); !v.OK {
		t.Fatalf("consistent aborted reader rejected: %s", v.Reason)
	}
}

func TestCheckDUOpacityIntermediateVsLastWrite(t *testing.T) {
	// T1 writes X=1 then X=2 and commits; a committed reader can only see
	// 2 (the latest write), never the intermediate 1.
	h := history.NewBuilder().
		Write(1, "X", 1).Write(1, "X", 2).Commit(1).
		Read(2, "X", 2).Commit(2).
		History()
	if v := CheckDUOpacity(h); !v.OK {
		t.Fatalf("read of final write rejected: %s", v.Reason)
	}
	bad := history.NewBuilder().
		Write(1, "X", 1).Write(1, "X", 2).Commit(1).
		Read(2, "X", 1).Commit(2).
		History()
	if v := CheckDUOpacity(bad); v.OK {
		t.Fatal("read of intermediate write accepted")
	}
}

func TestCheckOpacityFigure3Shape(t *testing.T) {
	// W1(X,1) · R2(X)->1 · tryC1->C1 · tryC2->C2: final-state opaque but
	// its prefix before tryC1's invocation is not (Figure 3).
	h := history.NewBuilder().
		Write(1, "X", 1).
		Read(2, "X", 1).
		Commit(1).
		Commit(2).
		History()
	if v := CheckFinalStateOpacity(h); !v.OK {
		t.Fatalf("final-state opacity should accept H: %s", v.Reason)
	}
	hp := h.Prefix(4) // W1(X,1) complete, R2(X)->1 complete
	if v := CheckFinalStateOpacity(hp); v.OK {
		t.Fatal("prefix H' should not be final-state opaque")
	}
	if v := CheckOpacity(h); v.OK {
		t.Fatal("opacity should reject H (prefix not final-state opaque)")
	}
	if v := CheckDUOpacity(h); v.OK {
		t.Fatal("du-opacity should reject H")
	}
}

// checkOpacityAllPrefixes is the unoptimized Definition 5: every prefix,
// event by event.
func checkOpacityAllPrefixes(h *history.History) bool {
	for i := 1; i <= h.Len(); i++ {
		if !CheckFinalStateOpacity(h.Prefix(i)).OK {
			return false
		}
	}
	return true
}

func TestOpacityResponsePrefixOptimization(t *testing.T) {
	// The response-only prefix pruning must agree with the all-prefixes
	// definition on a set of tricky histories.
	histories := []*history.History{
		serialWriteRead(),
		history.NewBuilder(). // Figure 3 shape
					Write(1, "X", 1).Read(2, "X", 1).Commit(1).Commit(2).History(),
		history.NewBuilder(). // commit-pending source
					Write(1, "X", 1).InvTryCommit(1).Read(2, "X", 1).Commit(2).History(),
		history.NewBuilder(). // aborted writer
					Write(1, "X", 1).CommitAbort(1).Read(2, "X", 0).Commit(2).History(),
		history.NewBuilder(). // interleaved txns
					InvWrite(1, "X", 1).InvRead(2, "Y").ResWrite(1, "X", 1).
					Write(1, "Y", 2).Commit(1).ResRead(2, "Y", 0).Commit(2).History(),
		history.NewBuilder(). // pending read at the end
					Write(1, "X", 1).Commit(1).InvRead(2, "X").History(),
	}
	for i, h := range histories {
		want := checkOpacityAllPrefixes(h)
		got := CheckOpacity(h).OK
		if got != want {
			t.Errorf("history %d: optimized opacity = %v, all-prefixes = %v", i, got, want)
		}
	}
}

func TestCheckTMS2CommitOrderConstraint(t *testing.T) {
	// Figure 6 shape: T1 commits a write to X before T2's tryC, T2 read
	// X=0 earlier; TMS2 forces T1 <_S T2 which contradicts legality.
	h := history.NewBuilder().
		Read(1, "X", 0).Write(1, "X", 1).
		InvRead(2, "X").ResRead(2, "X", 0).
		Commit(1).
		Write(2, "Y", 1).Commit(2).
		History()
	if v := CheckDUOpacity(h); !v.OK {
		t.Fatalf("du-opacity should accept (serialize T2 before T1): %s", v.Reason)
	}
	if v := CheckTMS2(h); v.OK {
		t.Fatal("TMS2 should reject: T1's commit precedes T2's tryC")
	}
}

func TestCheckRCOReadCommitOrder(t *testing.T) {
	// Figure 5 shape (sequential): T2 reads X=1 from T1, then T3 writes
	// X=1, Y=1 and commits, then T2 reads Y=1. RCO forces T2 <_S T3;
	// legality of the Y read forces T3 <_S T2.
	h := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 1).
		Write(3, "X", 1).Write(3, "Y", 1).Commit(3).
		Read(2, "Y", 1).
		History()
	if v := CheckDUOpacity(h); !v.OK {
		t.Fatalf("du-opacity should accept with T1,T3,T2: %s", v.Reason)
	}
	if v := CheckRCO(h); v.OK {
		t.Fatal("RCO should reject")
	}
}

func TestCheckSerializabilityIgnoresAborted(t *testing.T) {
	// An aborted transaction with an impossible read: rejected by
	// (du/final-state) opacity, invisible to serializability.
	h := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 9).Abort(2).
		History()
	if v := CheckFinalStateOpacity(h); v.OK {
		t.Fatal("final-state opacity must check aborted reads")
	}
	if v := CheckStrictSerializability(h); !v.OK {
		t.Fatalf("strict serializability must ignore aborted reads: %s", v.Reason)
	}
}

func TestCheckSerializabilityLostUpdate(t *testing.T) {
	h := history.NewBuilder().
		InvRead(1, "X").InvRead(2, "X").
		ResRead(1, "X", 0).ResRead(2, "X", 0).
		Write(1, "X", 1).Write(2, "X", 2).
		Commit(1).Commit(2).
		History()
	if v := CheckSerializability(h); v.OK {
		t.Fatal("lost update accepted by serializability")
	}
	if v := CheckDUOpacity(h); v.OK {
		t.Fatal("lost update accepted by du-opacity")
	}
}

func TestVerdictStringAndDispatch(t *testing.T) {
	h := serialWriteRead()
	for _, c := range AllCriteria() {
		v := Check(h, c)
		if !v.OK {
			t.Errorf("%s rejected the serial history: %s", c, v.Reason)
		}
		if !strings.Contains(v.String(), "OK") {
			t.Errorf("verdict string %q missing OK", v.String())
		}
	}
	bad := Check(h, Criterion(99))
	if bad.OK || bad.Reason == "" {
		t.Error("unknown criterion should yield a reasoned rejection")
	}
}

func TestNodeLimitUndecided(t *testing.T) {
	// A history large enough that one node is never sufficient.
	b := history.NewBuilder()
	for k := history.TxnID(1); k <= 6; k++ {
		b.InvWrite(k, "X", history.Value(k))
	}
	for k := history.TxnID(1); k <= 6; k++ {
		b.ResWrite(k, "X", history.Value(k)).Commit(k)
	}
	h := b.History()
	v := CheckDUOpacity(h, WithNodeLimit(1))
	if v.OK || !v.Undecided {
		t.Fatalf("want undecided verdict, got %+v", v)
	}
	if !strings.Contains(v.String(), "undecided") {
		t.Errorf("String() = %q, want undecided", v.String())
	}
}

func TestManyTxnsDecided(t *testing.T) {
	// Inversion of the old TestTxnLimit: the multi-word bitset engine has
	// no transaction-count ceiling, so histories crossing 64 (one mask
	// word) and 128 (two words) transactions must be decided exactly, not
	// rejected with a "limited to 64" reason.
	for _, n := range []history.TxnID{65, 130} {
		b := history.NewBuilder()
		for k := history.TxnID(1); k <= n; k++ {
			b.Write(k, "X", history.Value(k)).Commit(k)
		}
		h := b.History()
		v := CheckDUOpacity(h)
		if !v.OK || v.Undecided {
			t.Fatalf("n=%d: sequential committed writers must be du-opaque, got %+v", n, v)
		}
		if v.Witness() == nil {
			t.Fatalf("n=%d: no witness", n)
		}
		if err := VerifySerialization(h, v.Witness()); err != nil {
			t.Fatalf("n=%d: witness invalid: %v", n, err)
		}
		// A read of a stale (overwritten) value must still be refuted
		// exactly above the old ceiling.
		b = history.NewBuilder()
		for k := history.TxnID(1); k <= n; k++ {
			b.Write(k, "X", history.Value(k)).Commit(k)
		}
		b.Read(n+1, "X", 1).Commit(n + 1) // value of T_1, overwritten long ago
		if v := CheckDUOpacity(b.History()); v.OK || v.Undecided {
			t.Fatalf("n=%d: stale read must be refuted, got %+v", n, v)
		}
	}
}

func TestAllDUSerializationsEnumerates(t *testing.T) {
	// Two independent committed transactions on different objects overlap:
	// both orders are du-opaque serializations.
	h := history.NewBuilder().
		InvWrite(1, "X", 1).InvWrite(2, "Y", 2).
		ResWrite(1, "X", 1).ResWrite(2, "Y", 2).
		InvTryCommit(1).InvTryCommit(2).
		ResCommit(1).ResCommit(2).
		History()
	var orders [][]history.TxnID
	n := AllDUSerializations(h, 0, func(s *history.Seq) bool {
		orders = append(orders, s.Order())
		return true
	})
	if n != 2 || len(orders) != 2 {
		t.Fatalf("enumerated %d serializations, want 2 (%v)", n, orders)
	}
	// The limit is honored.
	n = AllDUSerializations(h, 1, func(*history.Seq) bool { return true })
	if n != 1 {
		t.Fatalf("limit ignored: %d", n)
	}
	// Early stop by the callback.
	n = AllDUSerializations(h, 0, func(*history.Seq) bool { return false })
	if n != 1 {
		t.Fatalf("early stop ignored: %d", n)
	}
}

func TestUniqueWrites(t *testing.T) {
	uniq := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Write(2, "X", 2).Commit(2).
		Write(3, "Y", 1).Commit(3). // same value, different object: fine
		History()
	if !UniqueWrites(uniq) {
		t.Error("unique-writes history misclassified")
	}
	dup := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Write(2, "X", 1).Commit(2).
		History()
	if UniqueWrites(dup) {
		t.Error("duplicate writes misclassified as unique")
	}
	initClash := history.NewBuilder().
		Write(1, "X", 0).Commit(1).
		History()
	if UniqueWrites(initClash) {
		t.Error("write of InitValue collides with T_0")
	}
	// Same transaction writing the same value twice does not violate
	// uniqueness across transactions.
	same := history.NewBuilder().
		Write(1, "X", 1).Write(1, "X", 1).Commit(1).
		History()
	if !UniqueWrites(same) {
		t.Error("same-transaction duplicate writes should not break uniqueness")
	}
}

func TestEmptyAndTrivialHistories(t *testing.T) {
	empty := history.MustFromEvents(nil)
	for _, c := range AllCriteria() {
		if v := Check(empty, c); !v.OK {
			t.Errorf("%s rejected the empty history: %s", c, v.Reason)
		}
	}
	pendingOnly := history.NewBuilder().InvRead(1, "X").History()
	if v := CheckDUOpacity(pendingOnly); !v.OK {
		t.Errorf("single pending read rejected: %s", v.Reason)
	}
}

func TestWitnessRespectsRealTime(t *testing.T) {
	h := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Write(2, "X", 2).Commit(2).
		Read(3, "X", 2).Commit(3).
		History()
	v := CheckDUOpacity(h)
	if !v.OK {
		t.Fatalf("rejected: %s", v.Reason)
	}
	s := v.Witness()
	for _, a := range h.Txns() {
		for _, b := range h.Txns() {
			if h.RealTimePrecedes(a, b) && s.Position(a) > s.Position(b) {
				t.Errorf("witness violates real time: T%d should precede T%d in %s", a, b, s)
			}
		}
	}
}
