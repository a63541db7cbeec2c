package certd

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"duopacity/internal/follow"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// ServeStreams accepts monitor-stream connections on ln until the
// listener closes (Drain closes it). Each connection is handled on its
// own goroutine; Drain waits for them.
func (s *Server) ServeStreams(ln net.Listener) error {
	s.streamMu.Lock()
	if s.draining {
		s.streamMu.Unlock()
		ln.Close()
		return fmt.Errorf("certd: coordinator is draining")
	}
	s.streamLns = append(s.streamLns, ln)
	s.streamMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil // listener closed (drain) — not an error
		}
		s.streams.Add(1)
		go func() {
			defer s.streams.Done()
			s.handleStream(conn)
		}()
	}
}

func (s *Server) closeStreamListeners() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for _, ln := range s.streamLns {
		_ = ln.Close()
	}
	s.streamLns = nil
}

func (s *Server) closeStreamConns() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

func (s *Server) trackConn(c net.Conn) func() {
	s.streamMu.Lock()
	s.conns[c] = struct{}{}
	s.streamMu.Unlock()
	return func() {
		s.streamMu.Lock()
		delete(s.conns, c)
		s.streamMu.Unlock()
	}
}

// appendSampleEvery spaces the appends a stream times for /statsz's
// avg_append_nanos: reading the clock around every append cost about a
// third of what a fast-path append costs.
const appendSampleEvery = 64

// handleStream runs one monitored stream: the follow core ducheck -follow
// runs (package follow: one session, the bad-input policies, the echo,
// the summary, DONE, and the rule for when output leaves) behind what only
// a network producer needs — admission control, a bounded queue with
// backpressure, metrics.
func (s *Server) handleStream(conn net.Conn) {
	defer conn.Close()
	defer s.trackConn(conn)()
	out := follow.NewOut(conn)
	defer out.Flush()

	// Admission control: past MaxStreams the hello is refused outright —
	// the connection-level analog of HTTP 429. The producer sees an
	// explicit ERR, never a silently-slow server.
	if int(s.Metrics.StreamsOpen.Add(1)) > s.cfg.MaxStreams {
		s.Metrics.StreamsOpen.Add(-1)
		s.Metrics.StreamsRejected.Add(1)
		fmt.Fprintln(out, "ERR busy")
		return
	}
	defer s.Metrics.StreamsOpen.Add(-1)
	streamID := fmt.Sprintf("s%d", s.Metrics.StreamsTotal.Add(1))

	// The reader hands the queue over each time it is about to wait for the
	// connection: one hand-off per read, whatever number of lines it held.
	q := newLineQueue(s.cfg.StreamQueue)
	defer q.abandon() // any early return unblocks a stalled reader
	in := bufio.NewScanner(follow.OnIdle(conn, q.handOff))
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !in.Scan() {
		if err := in.Err(); err != nil {
			fmt.Fprintf(out, "ERR read: %v\n", err)
		}
		return
	}
	o, err := follow.ParseHello(in.Text())
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	f, err := follow.New(o, out)
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	// Every way out releases the session's streams — a finished stream
	// through Finish, then this no-op; a gone client, a strict ERR or a
	// read error here.
	defer f.Release()
	// The network's share of an append: the fault-injection delay, and the
	// counters behind /statsz (accepted events only), kept here and folded
	// into the shared atomics once per batch. The clock is read around the
	// stream's first accepted append and every appendSampleEvery-th after
	// it, so a stream of n events takes ceil(n/appendSampleEvery) samples.
	var accepted, folded, appendNanos, samples int64
	fold := func() {
		s.Metrics.AppendNanos.Add(appendNanos)
		s.Metrics.AppendSamples.Add(samples)
		s.Metrics.StreamEvents.Add(accepted - folded)
		appendNanos, samples, folded = 0, 0, accepted
	}
	defer func() {
		fold()
		s.Metrics.StreamFlushesIdle.Add(int64(out.IdleFlushes))
		s.Metrics.StreamFlushesFull.Add(int64(out.FullFlushes))
		searches, fastHits := f.Stats()
		s.Metrics.StreamSearches.Add(int64(searches))
		s.Metrics.StreamFastHits.Add(int64(fastHits))
		c := f.Counters()
		s.Metrics.StreamFlips.Add(int64(c.Flips))
		s.Metrics.StreamMoves.Add(int64(c.Moves))
		s.Metrics.StreamReadsRechecked.Add(int64(c.ReadsRechecked))
		s.Metrics.StreamRetireProbes.Add(int64(c.RetireProbes))
	}()
	appendEvent := f.Append
	f.Append = func(e history.Event) ([]spec.Verdict, error) {
		if s.slow > 0 {
			time.Sleep(s.slow)
		}
		timed := accepted%appendSampleEvery == 0
		var start time.Time
		if timed {
			start = time.Now()
		}
		vs, err := appendEvent(e)
		if err == nil {
			if timed {
				appendNanos += time.Since(start).Nanoseconds()
				samples++
			}
			accepted++
		}
		return vs, err
	}
	fmt.Fprintf(out, "OK %s\n", streamID)
	out.Flush()

	go s.readLines(in, q, o.Lossy)

	// The drain: take everything the reader has handed over, feed it through
	// the follow, and let the echo leave when nothing more is waiting.
	var batch lineBatch
	for {
		more, err := q.take(&batch, out.Idle)
		if err != nil {
			return // client gone
		}
		if !more {
			break
		}
		s.Metrics.StreamBatches.Add(1)
		for i := range batch.lines {
			no, text := batch.line(i)
			if bad := f.Line(no, text); bad != nil {
				s.Metrics.StreamBad.Add(1)
				if o.Strict {
					// Fail the stream the way -strict fails the CLI: no final
					// verdicts. The deferred abandon unblocks the reader.
					fmt.Fprintf(out, "ERR %v\n", bad)
					return
				}
				if !o.SkipBad {
					fmt.Fprintf(out, "BAD %d %v\n", bad.No, bad.Err)
				}
			}
			if out.Full() != nil {
				return // client gone
			}
		}
		fold()
	}
	dropped, err := q.ended()
	if err != nil {
		// The input died mid-stream (read error, or a line past the
		// scanner's 1MB limit): fail explicitly rather than emitting a
		// DONE that pretends the stream completed.
		fmt.Fprintf(out, "ERR read: %v\n", err)
		return
	}
	done := f.Finish(out, "QUARANTINED")
	done.Dropped = dropped
	fmt.Fprintln(out, done)
}

// readLines is a stream's reader goroutine: every input line up to END
// goes into the queue. A full queue either pauses it — TCP flow control
// then pushes back on the producer, counted as a stall — or, on lossy
// streams, drops the line, counted and reported.
func (s *Server) readLines(in *bufio.Scanner, q *lineQueue, lossy bool) {
	lineNo := 0
	for in.Scan() {
		lineNo++
		text := in.Bytes()
		if string(text) == "END" {
			q.close(nil)
			return
		}
		switch q.push(lineNo, text, lossy) {
		case pushDropped:
			s.Metrics.StreamDropped.Add(1)
		case pushStalled:
			s.Metrics.StreamStalls.Add(1)
		case pushAbandoned:
			return
		}
	}
	q.close(in.Err())
}
