package history

import (
	"fmt"
	"testing"
)

// serialHistory builds n committed-or-aborted transactions run one after
// another over 16 objects: each reads one object, writes two, reads its
// own write back and tries to commit (every seventh aborts at its tryC).
// Every transaction real-time precedes every later one, so the RTPred and
// Writers rows of a few thousand transactions span many words.
func serialHistory(n int) *History {
	b := NewBuilder()
	var store [16]Value
	for k := 1; k <= n; k++ {
		id := TxnID(k)
		r, w, w2 := k*5%16, k%16, k*3%16
		x, y, z := Var(fmt.Sprintf("o%d", r)), Var(fmt.Sprintf("o%d", w)), Var(fmt.Sprintf("o%d", w2))
		b.Read(id, x, store[r]).Write(id, y, Value(k)).Write(id, z, Value(-k)).Read(id, y, Value(k))
		if k%7 == 0 {
			b.CommitAbort(id)
			continue
		}
		b.Commit(id)
		store[w] = Value(k)
		store[w2] = Value(-k)
	}
	return b.History()
}

// overlapHistory builds a short concurrent history with every shape the
// index distinguishes: overlapping transactions, reads of an own write
// (one of them bad: it misses the own write, so BadReadOp is set), a
// transaction writing one object twice, writes out of object order,
// aborted reads, writes and tryCs, a tryA, a pending read and a
// commit-pending tryC.
func overlapHistory() *History {
	b := NewBuilder()
	b.Write(1, "X", 1).InvRead(2, "X")
	b.Read(1, "X", 1).Write(1, "Y", 2)
	b.ResRead(2, "X", 0)
	b.Write(3, "X", 5).Read(3, "X", 6).InvTryCommit(3)
	b.Commit(1)
	b.Write(2, "Z", 3).Write(2, "X", 4).Write(2, "X", 8).Read(2, "X", 8)
	b.ResCommitAbort(3)
	b.InvRead(4, "Z")
	b.Write(5, "Y", 7).InvTryCommit(5)
	b.Abort(2)
	b.InvRead(6, "Y").ResReadAbort(6, "Y")
	b.InvWrite(7, "X", 9).ResWriteAbort(7, "X", 9)
	b.Write(8, "Z", 10).Read(8, "Y", 2).Write(8, "X", 11).Write(8, "Y", 12).Read(8, "X", 11).Commit(8)
	b.Read(9, "W", 0).Write(9, "Z", 13).Read(9, "Z", 13).Commit(9)
	return b.History()
}

// BenchmarkBatchIndex prices indexing a built history: FromEvents and the
// first Index over a long serial history and over a short concurrent one.
func BenchmarkBatchIndex(b *testing.B) {
	for _, c := range []struct {
		name string
		h    *History
	}{
		{"serial10000", serialHistory(10000)},
		{"overlap", overlapHistory()},
	} {
		evs := c.h.Events()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := FromEvents(evs)
				if err != nil {
					b.Fatal(err)
				}
				if h.Index().NumTxns() != c.h.NumTxns() {
					b.Fatal("index lost transactions")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}
