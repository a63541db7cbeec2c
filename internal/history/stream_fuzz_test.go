package history_test

import (
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// decodeEvent maps three fuzz bytes to an event. The encoding deliberately
// reaches invalid events (reserved transaction id, orphan or mismatched
// responses, events after t-completion) so the differential covers the
// error paths, not just the happy path.
func decodeEvent(b0, b1, b2 byte) history.Event {
	e := history.Event{
		Op: history.OpKind(b0%4 + 1),
		// 144 ids: 0 hits the reserved-id rejection, and the range is wide
		// enough for mutated inputs to grow histories past 64 and 128
		// transactions — the one- and two-word bitset boundaries the index
		// and the checker must cross without degrading.
		Txn: history.TxnID(b1 % 144),
	}
	if b0&4 == 0 {
		e.Kind = history.Inv
	} else {
		e.Kind = history.Res
		e.Out = history.Outcome((b0>>3)%3 + 1)
	}
	switch e.Op {
	case history.OpRead:
		e.Obj = history.Var("XYZ"[b2%3 : b2%3+1])
		if e.Kind == history.Res && e.Out == history.OutOK {
			e.Val = history.Value(b2 >> 2 & 3)
		}
	case history.OpWrite:
		e.Obj = history.Var("XYZ"[b2%3 : b2%3+1])
		e.Arg = history.Value(b2 >> 2 & 3)
	}
	return e
}

// FuzzStreamDifferential pins the streaming ingestion core against the
// batch path: every event offered to a Stream must be accepted or
// rejected exactly as FromEvents would decide for the accepted prefix
// plus that event, rejection must leave the stream untouched, and at the
// end the stream's history, its incrementally maintained index and the
// du-opacity verdict must equal the batch constructions — the same pin
// the checker rewrite's FuzzCheckerDifferential provides for the search
// engine. The sel byte additionally draws a monitorable criterion (and
// a retirement window, and the TMS2 aborted-reader exemption): the
// accepted events are replayed through a spec.Monitor and through a
// five-criteria spec.Session, and whenever a criterion latches a
// violation the batch checker must reject that exact response prefix; if
// it never latches, the final verdicts must agree at the last response
// prefix.
func FuzzStreamDifferential(f *testing.F) {
	f.Add([]byte{}, byte(0))
	// write_1(X,1) ok, tryC_1 C, read_2(X)->1, tryC_2 C.
	f.Add([]byte{
		1, 1, 4, 5, 1, 4, 2, 1, 0, 6, 1, 0,
		0, 2, 4, 4, 2, 4, 2, 2, 0, 6, 2, 0,
	}, byte(1)) // replayed under the TMS2 monitor
	// Invalid attempts mixed in: orphan response, reserved id.
	f.Add([]byte{4, 3, 0, 0, 0, 0, 1, 1, 4}, byte(0))
	// Figure 6's shape in the stream alphabet — the du-opaque history
	// TMS2 rejects and RCO accepts — seeded once per criterion it
	// separates: r1(X)->0, w1(X,1), r2(X)->0, C1, w2(Y,1), C2.
	fig6 := []byte{
		0, 1, 0, 4, 1, 0, // read_1(X) -> 0
		1, 1, 6, 5, 1, 6, // write_1(X, 1)
		0, 2, 0, 4, 2, 0, // read_2(X) -> 0
		2, 1, 0, 14, 1, 0, // tryC_1 -> C
		1, 2, 4, 5, 2, 4, // write_2(Y, 1)
		2, 2, 0, 14, 2, 0, // tryC_2 -> C
	}
	f.Add(fig6, byte(1)) // TMS2 latches
	f.Add(fig6, byte(2)) // RCO stays OK
	// 130 sequential committed writers: a seed that crosses both bitset
	// word boundaries (64 and 128 transactions), so the corpus routinely
	// mutates around them. Encoding per decodeEvent: write inv {1,k,b2},
	// write ok res {5,k,b2}, tryC inv {2,k,0}, commit res {14,k,0}.
	long := make([]byte, 0, 130*12)
	for k := 1; k <= 130; k++ {
		b2 := byte(k%4<<2) | byte(k%3)
		long = append(long, 1, byte(k), b2, 5, byte(k), b2, 2, byte(k), 0, 14, byte(k), 0)
	}
	f.Add(long, byte(0x22)) // RCO with a retirement window
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		const maxEvents = 600
		s := history.NewStream()
		var accepted []history.Event
		for i := 0; i+3 <= len(data) && i/3 < maxEvents; i += 3 {
			e := decodeEvent(data[i], data[i+1], data[i+2])
			_, batchErr := history.FromEvents(append(append([]history.Event(nil), accepted...), e))
			streamErr := s.Append(e)
			if (batchErr == nil) != (streamErr == nil) {
				t.Fatalf("event %v: stream err %v, batch err %v", e, streamErr, batchErr)
			}
			if streamErr != nil {
				if s.Len() != len(accepted) {
					t.Fatalf("rejected event %v moved the stream: len %d, want %d", e, s.Len(), len(accepted))
				}
				continue
			}
			accepted = append(accepted, e)
		}
		batch, err := history.FromEvents(accepted)
		if err != nil {
			t.Fatalf("accepted events rejected by batch path: %v", err)
		}
		if err := history.EqualHistoriesForTest(s.Live(), batch); err != nil {
			t.Fatalf("live history diverges from batch: %v", err)
		}
		snap := s.History()
		if err := history.EqualHistoriesForTest(snap, batch); err != nil {
			t.Fatalf("snapshot diverges from batch: %v", err)
		}
		ref := history.BuildIndexForTest(batch)
		if err := history.EqualIndexesForTest(s.Live().Index(), ref); err != nil {
			t.Fatalf("incremental index diverges from batch: %v", err)
		}
		if err := history.EqualIndexesForTest(snap.Index(), ref); err != nil {
			t.Fatalf("snapshot index diverges from batch: %v", err)
		}
		const nodeLimit = 50_000
		vs := spec.CheckDUOpacity(s.Live(), spec.WithNodeLimit(nodeLimit))
		vb := spec.CheckDUOpacity(batch, spec.WithNodeLimit(nodeLimit))
		if vs.OK != vb.OK || vs.Undecided != vb.Undecided || vs.Reason != vb.Reason {
			t.Fatalf("verdicts diverge: stream %v, batch %v", vs, vb)
		}

		// Online monitor differential: replay the accepted events through a
		// spec.Monitor for the criterion (retirement window, exemption)
		// drawn from sel, and through one spec.Session deciding every
		// monitorable criterion over its shared stream with the same
		// options. For each subject and criterion, a latched violation must
		// be confirmed by the batch checker on that exact response prefix;
		// a never-latched run must agree with the batch verdict at the last
		// response prefix (responses are where the verdict is defined —
		// trailing invocations only add completion choices or record
		// deferred edges). Undecided verdicts on either side skip the
		// comparison.
		const monLimit = 2_000
		mcs := spec.MonitorableCriteria()
		mc := mcs[int(sel&0x0f)%len(mcs)]
		monOpts := []spec.Option{spec.WithNodeLimit(monLimit)}
		batchOpts := []spec.Option{spec.WithNodeLimit(nodeLimit)}
		if window := []int{0, 0, 4, 16}[int(sel>>4)%4]; window > 0 {
			monOpts = append(monOpts, spec.WithRetirement(window))
		}
		if sel&0x80 != 0 {
			// Only TMS2 checks, monitors and deciders read the exemption.
			monOpts = append(monOpts, spec.WithTMS2AbortedReaderExemption())
			batchOpts = append(batchOpts, spec.WithTMS2AbortedReaderExemption())
		}
		m, err := spec.NewMonitor(mc, monOpts...)
		if err != nil {
			t.Fatalf("NewMonitor(%v): %v", mc, err)
		}
		sess, err := spec.NewSession(mcs, monOpts...)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		for _, subject := range []struct {
			name     string
			criteria []spec.Criterion
			append   func(history.Event) ([]spec.Verdict, error)
		}{
			{"monitor", []spec.Criterion{mc}, func(e history.Event) ([]spec.Verdict, error) {
				v, err := m.Append(e)
				return []spec.Verdict{v}, err
			}},
			{"session", mcs, sess.Append},
		} {
			latchedAt := make([]int, len(subject.criteria))
			final := make([]spec.Verdict, len(subject.criteria))
			for k := range latchedAt {
				latchedAt[k] = -1
			}
			lastRes := -1
			for i, e := range accepted {
				vs, err := subject.append(e)
				if err != nil {
					t.Fatalf("%s rejected stream-accepted event %v: %v", subject.name, e, err)
				}
				if e.Kind == history.Res {
					lastRes = i
				}
				for k, v := range vs {
					final[k] = v
					if latchedAt[k] < 0 && !v.OK && !v.Undecided {
						latchedAt[k] = i
					}
				}
			}
			for k, c := range subject.criteria {
				mv := final[k]
				if latchedAt[k] >= 0 {
					want := spec.Check(batch.Prefix(latchedAt[k]+1), c, batchOpts...)
					if want.OK {
						t.Fatalf("%v %s latched a violation at event %d (%q) but the batch checker accepts that prefix",
							c, subject.name, latchedAt[k], mv.Reason)
					}
				} else if lastRes >= 0 && !mv.Undecided {
					want := spec.Check(batch.Prefix(lastRes+1), c, batchOpts...)
					if !want.Undecided && mv.OK != want.OK {
						t.Fatalf("%v final verdicts diverge at response prefix %d: %s OK=%v, batch OK=%v (reason %q)",
							c, lastRes+1, subject.name, mv.OK, want.OK, want.Reason)
					}
				}
			}
		}
	})
}

// FuzzStreamTruncate pins Stream.Truncate as the exact inverse of Append
// under arbitrary interleavings of the two. Each byte triple is one step:
// b0 >= 0xE0 truncates to a length drawn from the other two bytes, b0 in
// [0xD0, 0xE0) takes a snapshot (so truncation under a held snapshot — the
// storage-sharing case — is reached), anything else offers the decoded
// event, which the stream must accept or reject exactly as FromEvents
// does over the surviving events. After every truncation and at the end
// the live history and its incremental index (recycled rows included) must
// equal the batch constructions and a fresh stream fed the surviving
// events, with no transaction or object of any event offered so far
// still known unless it survives — truncating to 0 is the wholesale
// reset, after which the stream is fed a different history — and every
// snapshot must still hold exactly the events it was taken over.
func FuzzStreamTruncate(f *testing.F) {
	f.Add([]byte{})
	// T1 writes X and commits, T2 reads it; back to 3 events, T1 aborts
	// instead, a snapshot, back to nothing, then another transaction.
	f.Add([]byte{
		1, 1, 4, 5, 1, 4, 2, 1, 0, 14, 1, 0,
		0, 2, 0, 4, 2, 4,
		0xE0, 0, 3, 22, 1, 0,
		0xD0, 0, 0, 0xE0, 0, 0,
		1, 3, 5, 5, 3, 5,
	})
	// An own-write read that misses its write (BadReadOp), undone and redone.
	f.Add([]byte{1, 1, 4, 5, 1, 4, 0, 1, 0, 4, 1, 8, 0xE0, 0, 3, 4, 1, 4, 0xE0, 0, 1})
	// T1 and T2 write X and Y, a snapshot, the reset, then T3 reads Z and
	// commits: a different history on a reused stream.
	f.Add([]byte{
		1, 1, 0, 5, 1, 0, 1, 2, 1, 5, 2, 1,
		0xD0, 0, 0, 0xE0, 0, 0,
		0, 3, 2, 4, 3, 2, 2, 3, 0, 14, 3, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSteps = 400
		s := history.NewStream()
		var accepted, offered []history.Event
		type held struct {
			h   *history.History
			evs []history.Event
		}
		var snaps []held
		check := func(when string) {
			batch, err := history.FromEvents(accepted)
			if err != nil {
				t.Fatalf("%s: surviving events rejected by batch path: %v", when, err)
			}
			if err := history.EqualHistoriesForTest(s.Live(), batch); err != nil {
				t.Fatalf("%s: live history diverges from batch: %v", when, err)
			}
			if err := history.EqualIndexesForTest(s.Live().Index(), history.BuildIndexForTest(batch)); err != nil {
				t.Fatalf("%s: incremental index diverges from batch: %v", when, err)
			}
			if err := history.EqualToFreshForTest(s, offered); err != nil {
				t.Fatalf("%s: stream diverges from a fresh one: %v", when, err)
			}
		}
		for i := 0; i+3 <= len(data) && i/3 < maxSteps; i += 3 {
			switch b0 := data[i]; {
			case b0 >= 0xE0:
				n := (int(data[i+1])<<8 | int(data[i+2])) % (len(accepted) + 1)
				s.Truncate(n)
				accepted = accepted[:n]
				check("after truncate")
			case b0 >= 0xD0:
				if len(snaps) < 8 {
					snaps = append(snaps, held{s.History(), append([]history.Event(nil), accepted...)})
				}
			default:
				e := decodeEvent(data[i], data[i+1], data[i+2])
				offered = append(offered, e)
				_, batchErr := history.FromEvents(append(append([]history.Event(nil), accepted...), e))
				streamErr := s.Append(e)
				if (batchErr == nil) != (streamErr == nil) {
					t.Fatalf("event %v: stream err %v, batch err %v", e, streamErr, batchErr)
				}
				if streamErr == nil {
					accepted = append(accepted, e)
				}
			}
		}
		check("at the end")
		for k, sn := range snaps {
			if err := history.EqualHistoriesForTest(sn.h, history.MustFromEvents(sn.evs)); err != nil {
				t.Fatalf("snapshot %d changed under the stream: %v", k, err)
			}
		}
	})
}
