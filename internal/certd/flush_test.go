package certd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamVerdictLeavesWhenIdle is the flush contract: whatever the
// server has to say about the input so far — the hello's OK, an echo line,
// a verdict column, a BAD note — is readable with nothing further sent.
// net.Pipe has no buffers, so every line read here was written by a flush
// the idle input caused; a server that waits for more output before it
// writes runs into the deadline.
func TestStreamVerdictLeavesWhenIdle(t *testing.T) {
	s := NewServer(Config{})
	srv, cli := net.Pipe()
	defer cli.Close()
	_ = cli.SetDeadline(time.Now().Add(10 * time.Second))
	handlerDone := make(chan struct{})
	go func() {
		s.handleStream(srv)
		close(handlerDone)
	}()
	r := bufio.NewReader(cli)
	exchange := func(send, want string) {
		t.Helper()
		if _, err := io.WriteString(cli, send); err != nil {
			t.Fatalf("sending %q: %v", send, err)
		}
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %q nothing came back before the deadline: %v", send, err)
		}
		if got != want {
			t.Fatalf("after %q: got %q, want %q", send, got, want)
		}
	}
	exchange("STREAM du\n", "OK s1\n")
	exchange("inv write 1 X 1\n", "   0  inv write_1(X,1)            \n")
	exchange("res write 1 X 1 ok\n", "   1  res write_1(X,1)->ok          du-opacity:ok\n")
	exchange("nonsense\n", "BAD 3 unknown directive \"nonsense\"\n")
	// A line split across writes is one line, answered when it is whole.
	if _, err := io.WriteString(cli, "inv tr"); err != nil {
		t.Fatal(err)
	}
	exchange("yc 1\n", "   2  inv tryC_1                  \n")
	exchange("res tryc 1 C\nEND\n", "   3  res tryC_1->C                 du-opacity:ok\n")
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := "du-opacity: OK [T1+]\nDONE events=4 bad=1 dropped=0 violations=0\n"; string(rest) != want {
		t.Fatalf("summary %q, want %q", rest, want)
	}
	<-handlerDone

	// Every exchange was one hand-off and one idle flush; /statsz says so.
	st := s.Stats().Streams
	// (The last echo may leave with the summary: END came with its line.)
	if st.Batches < 5 || st.FlushesIdle < 4 || st.FlushesFull != 0 {
		t.Errorf("batches=%d flushes_idle=%d flushes_full=%d, want at least 5, at least 4, 0", st.Batches, st.FlushesIdle, st.FlushesFull)
	}
	js, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"batches":`, `"flushes_idle":`, `"flushes_full":0`} {
		if !bytes.Contains(js, []byte(key)) {
			t.Errorf("/statsz lacks %s: %s", key, js)
		}
	}
}

// feedConn is a stream client with no network under it: Read hands out the
// feed in pieces of at most chunk() bytes, Write discards, and both count
// their calls — the system calls a real connection would have cost. With
// lockstep set it is a producer slower than the server: a piece that
// completed a line is followed by the next only once the server has
// written something back.
type feedConn struct {
	net.Conn // nil: the handler only reads, writes and closes
	feed     []byte
	chunk    func() int
	lockstep bool
	awaited  int64 // with lockstep: the write count the next Read waits to see exceeded, or -1
	reads    atomic.Int64
	writes   atomic.Int64
	written  atomic.Int64
}

func (c *feedConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	if c.lockstep && c.awaited >= 0 {
		for deadline := time.Now().Add(10 * time.Second); c.writes.Load() <= c.awaited; runtime.Gosched() {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("feedConn: no answer to a whole line within 10s")
			}
		}
	}
	if len(c.feed) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk())], c.feed)
	c.awaited = -1
	if bytes.IndexByte(c.feed[:n], '\n') >= 0 {
		c.awaited = c.writes.Load()
	}
	c.feed = c.feed[n:]
	return n, nil
}

func (c *feedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.written.Add(int64(len(p)))
	return len(p), nil
}

func (c *feedConn) Close() error { return nil }

// TestStreamWritesBoundedByReads: flushing on idle input must not turn
// into a write per event, however the reader and the drain are scheduled.
// The reader hands off once per read (and when it finds the queue full),
// the drain flushes on idle at most once per hand-off, and otherwise only
// with 32 KB in hand — so writes are bounded by reads + stalls + full
// flushes, each of which pays for many events. Checked with the producer
// saturating the server, and with one slower than the server, whose input
// dribbles in a few bytes at a time and waits for the answer to every
// whole line: the drain is idle after every read, and still writes at
// most once per read.
func TestStreamWritesBoundedByReads(t *testing.T) {
	feed := func(txns int) []byte {
		var b bytes.Buffer
		b.WriteString("STREAM du retire=8\n")
		for k := 1; k <= txns; k++ {
			fmt.Fprintf(&b, "write %d X %d\ncommit %d\n", k, k, k)
		}
		b.WriteString("END\n")
		return b.Bytes()
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name      string
		txns      int
		chunk     func() int
		dribbling bool
	}{
		{name: "saturated", txns: 25000, chunk: func() int { return 4096 }},
		{name: "dribbling", txns: 5000, dribbling: true, chunk: func() int { return 1 + rng.Intn(120) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer(Config{})
			conn := &feedConn{feed: feed(c.txns), chunk: c.chunk, lockstep: c.dribbling, awaited: -1}
			s.handleStream(conn)
			st := s.Stats().Streams
			events := int64(4 * c.txns)
			if st.Events != events {
				t.Fatalf("monitored %d events, fed %d", st.Events, events)
			}
			reads, writes := conn.reads.Load(), conn.writes.Load()
			t.Logf("%d events: %d reads, %d writes (%d bytes); batches=%d stalls=%d flushes idle=%d full=%d",
				events, reads, writes, conn.written.Load(), st.Batches, st.Stalls, st.FlushesIdle, st.FlushesFull)
			// Two writes are not flushes of echo: the hello's OK and the summary.
			if writes != st.FlushesIdle+st.FlushesFull+2 {
				t.Errorf("%d writes, but %d idle + %d full flushes + 2", writes, st.FlushesIdle, st.FlushesFull)
			}
			if st.Batches > reads+st.Stalls {
				t.Errorf("%d hand-offs for %d reads and %d stalls: more than one per read", st.Batches, reads, st.Stalls)
			}
			if st.FlushesIdle > st.Batches {
				t.Errorf("%d idle flushes for %d hand-offs: more than one per hand-off", st.FlushesIdle, st.Batches)
			}
			if full := conn.written.Load() / (32 * 1024); st.FlushesFull > full {
				t.Errorf("%d full flushes for %d bytes written: some left with less than 32 KB", st.FlushesFull, conn.written.Load())
			}
			if !c.dribbling && writes*20 > events {
				t.Errorf("saturated input: %d writes for %d events, not amortised", writes, events)
			}
			if c.dribbling && (writes > reads || st.FlushesFull != 0 || st.Stalls != 0) {
				t.Errorf("dribbling input: %d writes (%d full flushes, %d stalls) for %d reads, want at most one write per read and nothing else",
					writes, st.FlushesFull, st.Stalls, reads)
			}
		})
	}
}

// TestLineQueue drives the reader/drain hand-off on its own: lines come
// out in order and whole, never more than max in one take, a lossy push on
// a full queue drops and counts, a blocking one waits and is released by
// the drain leaving.
func TestLineQueue(t *testing.T) {
	const max, n = 4, 5000
	text := func(i int) []byte { return []byte(strings.Repeat("x", i%7) + fmt.Sprint(i)) }

	q := newLineQueue(max)
	stalls := 0
	go func() {
		for i := 1; i <= n; i++ {
			switch q.push(i, text(i), false) {
			case pushStalled:
				stalls++
			case pushDropped, pushAbandoned:
				t.Errorf("blocking push %d did not queue", i)
			}
			if i%3 == 0 {
				_ = q.handOff()
			}
		}
		q.close(io.ErrUnexpectedEOF)
	}()
	var batch lineBatch
	next, idles := 1, 0
	for {
		more, err := q.take(&batch, func() error { idles++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if len(batch.lines) > max {
			t.Fatalf("took %d lines from a queue of %d", len(batch.lines), max)
		}
		for i := range batch.lines {
			no, got := batch.line(i)
			if no != next || !bytes.Equal(got, text(next)) {
				t.Fatalf("line %d came out as %d %q", next, no, got)
			}
			next++
		}
	}
	if dropped, err := q.ended(); next != n+1 || err != io.ErrUnexpectedEOF || dropped != 0 {
		t.Fatalf("took %d of %d lines, err %v, dropped %d", next-1, n, err, dropped)
	}
	t.Logf("%d stalls, %d idle calls", stalls, idles)

	// Lossy: the queue keeps max lines and counts the rest.
	q = newLineQueue(max)
	for i := 1; i <= 10; i++ {
		if res := q.push(i, text(i), true); (res == pushDropped) != (i > max) {
			t.Fatalf("lossy push %d: result %d", i, res)
		}
	}
	q.close(nil)
	more, _ := q.take(&batch, func() error { t.Error("idle called with lines handed off"); return nil })
	if dropped, _ := q.ended(); !more || len(batch.lines) != max || dropped != 10-max {
		t.Fatalf("lossy queue: more=%v lines=%d dropped=%d", more, len(batch.lines), dropped)
	}
	if more, _ := q.take(&batch, nil); more {
		t.Fatal("closed, emptied queue reports more")
	}

	// A buffer that grew for a burst of very long lines is not kept.
	q = newLineQueue(max)
	q.push(1, make([]byte, maxKeptText+1), false)
	_ = q.handOff()
	if more, _ := q.take(&batch, nil); !more || cap(batch.text) <= maxKeptText {
		t.Fatalf("long line not taken: more=%v cap=%d", more, cap(batch.text))
	}
	q.push(2, text(2), false)
	_ = q.handOff()
	if _, _ = q.take(&batch, nil); cap(q.fill.text) > maxKeptText {
		t.Fatalf("queue kept a %d-byte buffer for reuse", cap(q.fill.text))
	}

	// A reader waiting for room is released when the drain leaves.
	q = newLineQueue(1)
	q.push(1, text(1), false)
	released := make(chan pushResult)
	go func() { released <- q.push(2, text(2), false) }()
	q.abandon()
	select {
	case res := <-released:
		if res != pushAbandoned {
			t.Fatalf("push after abandon: result %d", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled push not released by abandon")
	}
}
