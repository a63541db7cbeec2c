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

// handleStream runs one monitored stream: the follow core ducheck -follow
// runs (package follow: one session, the bad-input policies, the echo,
// the summary, DONE) behind what only a network producer needs — admission
// control, a bounded queue with backpressure, flushing, metrics.
func (s *Server) handleStream(conn net.Conn) {
	defer conn.Close()
	defer s.trackConn(conn)()
	// The out-buffer must exceed the 32KB flush threshold below, or the
	// explicit flush (with its client-gone check) could never fire —
	// bufio would auto-flush first and swallow the error.
	out := bufio.NewWriterSize(conn, 64*1024)
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

	in := bufio.NewScanner(conn)
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
	defer func() {
		searches, fastHits := f.Stats()
		s.Metrics.StreamSearches.Add(int64(searches))
		s.Metrics.StreamFastHits.Add(int64(fastHits))
		c := f.Counters()
		s.Metrics.StreamFlips.Add(int64(c.Flips))
		s.Metrics.StreamReadsRechecked.Add(int64(c.ReadsRechecked))
		s.Metrics.StreamRetireProbes.Add(int64(c.RetireProbes))
	}()
	// The network's share of an append: the fault-injection delay, and the
	// latency and event counters behind /statsz (accepted events only).
	appendEvent := f.Append
	f.Append = func(e history.Event) ([]spec.Verdict, error) {
		time.Sleep(s.cfg.SlowAppend)
		start := time.Now()
		vs, err := appendEvent(e)
		if err == nil {
			s.Metrics.AppendNanos.Add(time.Since(start).Nanoseconds())
			s.Metrics.StreamEvents.Add(1)
		}
		return vs, err
	}
	fmt.Fprintf(out, "OK %s\n", streamID)
	out.Flush()

	// The bounded input queue: the reader goroutine feeds it, this
	// goroutine drains it through the follow. A full queue either pauses
	// the reader — TCP flow control then pushes back on the producer,
	// counted as a stall — or, on lossy streams, drops the line, counted
	// and reported. Memory per stream is queue depth plus the session's
	// retirement window, independent of stream length.
	type inLine struct {
		no   int
		text string
	}
	queue := make(chan inLine, s.cfg.StreamQueue)
	consumerGone := make(chan struct{})
	defer close(consumerGone) // any early return unblocks a stalled reader
	var (
		dropped int
		readErr error // written before close(queue), read after the drain loop
	)
	go func() {
		defer close(queue)
		lineNo := 0
		for in.Scan() {
			lineNo++
			text := in.Text()
			if text == "END" {
				return
			}
			l := inLine{no: lineNo, text: text}
			select {
			case queue <- l:
			default:
				if o.Lossy {
					dropped++
					s.Metrics.StreamDropped.Add(1)
					continue
				}
				s.Metrics.StreamStalls.Add(1)
				select {
				case queue <- l:
				case <-consumerGone:
					return
				}
			}
		}
		readErr = in.Err()
	}()

	for l := range queue {
		if bad := f.Line(l.no, l.text); bad != nil {
			s.Metrics.StreamBad.Add(1)
			if o.Strict {
				// Fail the stream the way -strict fails the CLI: no final
				// verdicts. The deferred close(consumerGone) unblocks the
				// reader.
				fmt.Fprintf(out, "ERR %v\n", bad)
				return
			}
			if !o.SkipBad {
				fmt.Fprintf(out, "BAD %d %v\n", bad.No, bad.Err)
			}
		}
		if out.Buffered() > 32*1024 {
			if out.Flush() != nil {
				return // client gone
			}
		}
	}
	if readErr != nil {
		// The input died mid-stream (read error, or a line past the
		// scanner's 1MB limit): fail explicitly rather than emitting a
		// DONE that pretends the stream completed.
		fmt.Fprintf(out, "ERR read: %v\n", readErr)
		return
	}
	done := f.Finish(out, "QUARANTINED")
	done.Dropped = dropped
	fmt.Fprintln(out, done)
}
