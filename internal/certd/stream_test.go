package certd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"duopacity/internal/follow"
	"duopacity/internal/harness"
)

// startStreams spins a stream listener for s on a loopback port.
func startStreams(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeStreams(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

type streamConn struct {
	c net.Conn
	w *bufio.Writer
	r *bufio.Scanner
}

func dialStream(t *testing.T, addr, hello string) *streamConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	sc := &streamConn{c: c, w: bufio.NewWriter(c), r: bufio.NewScanner(c)}
	fmt.Fprintln(sc.w, hello)
	if err := sc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sc
}

func (sc *streamConn) send(t *testing.T, lines ...string) {
	t.Helper()
	for _, l := range lines {
		fmt.Fprintln(sc.w, l)
	}
	if err := sc.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// collect reads every response line until the connection closes.
func (sc *streamConn) collect(t *testing.T) []string {
	t.Helper()
	var out []string
	for sc.r.Scan() {
		out = append(out, sc.r.Text())
	}
	return out
}

func lastPrefixed(lines []string, prefix string) string {
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], prefix) {
			return lines[i]
		}
	}
	return ""
}

// TestStreamVerdicts drives a clean two-criterion stream end to end: OK
// hello, per-event echoes with verdict columns, final verdicts, DONE.
func TestStreamVerdicts(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	sc := dialStream(t, addr, "STREAM du,opacity")
	sc.send(t,
		"write 1 X 1",
		"commit 1",
		"read 2 X 1",
		"commit 2",
		"END",
	)
	lines := sc.collect(t)
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "OK ") {
		t.Fatalf("no OK hello: %q", lines)
	}
	done := lastPrefixed(lines, "DONE ")
	if done != "DONE events=8 bad=0 dropped=0 violations=0" {
		t.Fatalf("DONE line wrong: %q\nall: %q", done, lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "du-opacity: OK") || !strings.Contains(joined, "opacity: OK") {
		t.Fatalf("final verdicts missing:\n%s", joined)
	}
	// Per-event echoes carry verdict columns on response events.
	if !strings.Contains(joined, "du-opacity:ok") {
		t.Fatalf("per-event verdict columns missing:\n%s", joined)
	}
	if got := s.Metrics.StreamEvents.Load(); got != 8 {
		t.Fatalf("StreamEvents = %d, want 8", got)
	}
}

// TestStreamViolation: an early read (deferred-update violation) latches
// and shows up in the final verdict and the DONE counters.
func TestStreamViolation(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	sc := dialStream(t, addr, "STREAM du quiet")
	sc.send(t,
		"inv write 1 X 5",
		"res write 1 X 5 ok",
		"read 2 X 5", // reads uncommitted state: du-opacity violation
		"commit 2",
		"commit 1",
		"END",
	)
	lines := sc.collect(t)
	done := lastPrefixed(lines, "DONE ")
	if !strings.Contains(done, "violations=1") {
		t.Fatalf("violation not in DONE: %q\nall: %q", done, lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "du-opacity: violated") {
		t.Fatalf("final verdict not violated:\n%s", joined)
	}
}

// TestStreamBadInputPolicies pins the three bad-input policies of
// ducheck -follow on the wire: default notes BAD lines, skipbad
// quarantines with a ledger, strict kills the stream with ERR.
func TestStreamBadInputPolicies(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)

	t.Run("default", func(t *testing.T) {
		sc := dialStream(t, addr, "STREAM du quiet")
		sc.send(t, "write 1 X 1", "this is not an event", "commit 1", "END")
		lines := sc.collect(t)
		if bad := lastPrefixed(lines, "BAD "); !strings.HasPrefix(bad, "BAD 2 ") {
			t.Fatalf("no BAD note for line 2: %q", lines)
		}
		if done := lastPrefixed(lines, "DONE "); !strings.Contains(done, "events=4 bad=1") {
			t.Fatalf("DONE wrong: %q", lines)
		}
	})

	t.Run("skipbad", func(t *testing.T) {
		sc := dialStream(t, addr, "STREAM du quiet skipbad")
		sc.send(t, "write 1 X 1", "garbage", "more garbage", "commit 1", "END")
		lines := sc.collect(t)
		joined := strings.Join(lines, "\n")
		if strings.Contains(joined, "BAD ") {
			t.Fatalf("skipbad noted lines: %q", lines)
		}
		if !strings.Contains(joined, "QUARANTINED 2 bad input line(s):") {
			t.Fatalf("quarantine ledger missing:\n%s", joined)
		}
		if !strings.Contains(joined, "follow: events=4 bad=2") {
			t.Fatalf("summary line missing:\n%s", joined)
		}
	})

	t.Run("strict", func(t *testing.T) {
		sc := dialStream(t, addr, "STREAM du quiet strict")
		sc.send(t, "write 1 X 1", "garbage", "commit 1", "END")
		lines := sc.collect(t)
		errLine := lastPrefixed(lines, "ERR ")
		if !strings.Contains(errLine, "line 2:") {
			t.Fatalf("strict did not fail on line 2: %q", lines)
		}
		if lastPrefixed(lines, "DONE ") != "" {
			t.Fatalf("strict stream still finished: %q", lines)
		}
	})
}

// TestStreamAdmissionControl: past MaxStreams the hello is refused with
// an explicit ERR busy (the 429 analog), observable in the metrics.
func TestStreamAdmissionControl(t *testing.T) {
	s := NewServer(Config{MaxStreams: 1})
	addr := startStreams(t, s)

	first := dialStream(t, addr, "STREAM du quiet")
	if !first.r.Scan() || !strings.HasPrefix(first.r.Text(), "OK ") {
		t.Fatalf("first stream refused: %q", first.r.Text())
	}
	second := dialStream(t, addr, "STREAM du quiet")
	if !second.r.Scan() || second.r.Text() != "ERR busy" {
		t.Fatalf("second stream not refused: %q", second.r.Text())
	}
	if got := s.Metrics.StreamsRejected.Load(); got != 1 {
		t.Fatalf("StreamsRejected = %d, want 1", got)
	}
	// Finishing the first stream frees the slot.
	first.send(t, "END")
	first.collect(t)
	third := dialStream(t, addr, "STREAM du quiet")
	if !third.r.Scan() || !strings.HasPrefix(third.r.Text(), "OK ") {
		t.Fatalf("slot not freed after stream end: %q", third.r.Text())
	}
}

// TestStreamHundredConcurrent: 100 monitored du streams open at once,
// each fed 50 write/commit transactions under a retirement window of 8
// and read to its end, monitor every event with no bad line and no
// violation, and leave the open-stream gauge at 0 with /statsz's events
// equal to the sum of the DONE counts.
func TestStreamHundredConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("100 concurrent streams are not -short")
	}
	const streams, txns = 100, 50
	s := NewServer(Config{})
	addr := startStreams(t, s)
	conns := make([]*streamConn, streams)
	for i := range conns {
		conns[i] = dialStream(t, addr, "STREAM du retire=8 quiet")
		if !conns[i].r.Scan() || !strings.HasPrefix(conns[i].r.Text(), "OK ") {
			t.Fatalf("stream %d refused: %q", i, conns[i].r.Text())
		}
	}
	if open := s.Stats().Streams.Open; open != streams {
		t.Fatalf("%d streams open after %d helloes, want %d", open, streams, streams)
	}

	dones := make([]follow.Done, streams)
	var wg sync.WaitGroup
	for i, sc := range conns {
		wg.Add(1)
		go func(i int, sc *streamConn) {
			defer wg.Done()
			for k := 1; k <= txns; k++ {
				fmt.Fprintf(sc.w, "write %d X %d\ncommit %d\n", k, i*1000+k, k)
			}
			fmt.Fprintln(sc.w, "END")
			if err := sc.w.Flush(); err != nil {
				t.Errorf("stream %d: %v", i, err)
				return
			}
			lines := sc.collect(t)
			d, ok := follow.ParseDone(lastPrefixed(lines, "DONE "))
			if !ok {
				t.Errorf("stream %d ended without DONE: %q", i, lines)
			}
			dones[i] = d
		}(i, sc)
	}
	wg.Wait()

	var events int64
	for i, d := range dones {
		if d != (follow.Done{Events: 4 * txns}) {
			t.Errorf("stream %d: %+v, want %d events, none bad or violating", i, d, 4*txns)
		}
		events += int64(d.Events)
	}
	if events != streams*txns*4 {
		t.Fatalf("monitored %d events, want %d", events, streams*txns*4)
	}
	if st := s.Stats().Streams; st.Open != 0 || st.Total != streams || st.Events != events {
		t.Fatalf("statsz after the run: open=%d total=%d events=%d, want 0, %d and %d", st.Open, st.Total, st.Events, streams, events)
	}
}

// slowServer is a coordinator whose streams sleep d before every append,
// so a producer outruns them deterministically.
func slowServer(cfg Config, d time.Duration) *Server {
	s := NewServer(cfg)
	s.slow = d
	return s
}

// TestStreamBlockingBackpressure: a producer that outruns a slow stream
// waits on TCP flow control, and every event is still monitored.
func TestStreamBlockingBackpressure(t *testing.T) {
	s := slowServer(Config{}, time.Millisecond)
	addr := startStreams(t, s)
	sc := dialStream(t, addr, "STREAM du quiet")
	lines := make([]string, 0, 101)
	for i := 1; i <= 50; i++ {
		lines = append(lines, fmt.Sprintf("write %d X %d", i, i), fmt.Sprintf("commit %d", i))
	}
	lines = append(lines, "END")
	sc.send(t, lines...)
	out := sc.collect(t)
	done := lastPrefixed(out, "DONE ")
	if !strings.Contains(done, "events=200 bad=0 dropped=0") {
		t.Fatalf("blocking stream lost events: %q", done)
	}
}

// TestStreamReadErrorFailsStream: an input line past the scanner's 1MB
// limit is a read error, not a clean end — the stream fails with an
// explicit ERR line and never emits a DONE that pretends completion.
// net.Pipe keeps the exchange deterministic (no kernel buffers, no RST).
func TestStreamReadErrorFailsStream(t *testing.T) {
	s := NewServer(Config{})
	srv, cli := net.Pipe()
	defer cli.Close()
	_ = cli.SetDeadline(time.Now().Add(30 * time.Second))
	handlerDone := make(chan struct{})
	go func() {
		s.handleStream(srv)
		close(handlerDone)
	}()
	go func() {
		w := bufio.NewWriter(cli)
		fmt.Fprintln(w, "STREAM du quiet")
		_ = w.Flush()
		fmt.Fprintln(w, "write 1 X 1")
		fmt.Fprint(w, strings.Repeat("x", 2<<20)) // no newline within 1MB
		_ = w.Flush()                             // errors once the server gives up — fine
	}()
	r := bufio.NewScanner(cli)
	var lines []string
	for r.Scan() {
		lines = append(lines, r.Text())
	}
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("stream handler did not return")
	}
	if errLine := lastPrefixed(lines, "ERR read:"); errLine == "" {
		t.Fatalf("oversized line not failed with ERR read: %q", lines)
	}
	if lastPrefixed(lines, "DONE ") != "" {
		t.Fatalf("truncated stream still emitted DONE: %q", lines)
	}
}

// TestStreamDeadClientReleasesHandler: a client that sends a burst and
// vanishes without reading must not leave its stream's handler running —
// the handler's next flush or read fails and it returns, releasing its
// admission slot. It waits on the handler itself (the server's stream
// WaitGroup).
func TestStreamDeadClientReleasesHandler(t *testing.T) {
	s := slowServer(Config{}, 200*time.Microsecond)
	addr := startStreams(t, s)

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	w := bufio.NewWriter(c)
	fmt.Fprintln(w, "STREAM du")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewScanner(c)
	if !r.Scan() || !strings.HasPrefix(r.Text(), "OK ") {
		t.Fatalf("no OK hello: %q", r.Text())
	}
	// A burst big enough that (a) the echoes blow past the 32KB flush
	// threshold and (b) lines are still unread behind the slow handler
	// when it detects the dead client.
	for i := 1; i <= 1500; i++ {
		fmt.Fprintf(w, "write %d X %d\n", i, i)
	}
	_ = w.Flush() // the server may already have given up on us; errors are fine
	_ = c.Close() // vanish without ever reading the echoes

	deadline := time.Now().Add(10 * time.Second)
	handled := make(chan struct{})
	go func() { s.streams.Wait(); close(handled) }()
	select {
	case <-handled:
	case <-time.After(time.Until(deadline)):
		t.Fatal("stream handler still running 10 s after dead client")
	}
	if open := s.Metrics.StreamsOpen.Load(); open != 0 {
		t.Fatalf("StreamsOpen = %d after dead client", open)
	}
}

// TestDrainClosesOpenStream: a stream whose producer never sends END
// holds Drain until its context expires. Drain then closes the connection
// itself, waits for the handler and returns the context's error: the
// client reads EOF, the handler has returned and /statsz shows no stream
// open.
func TestDrainClosesOpenStream(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	sc := dialStream(t, addr, "STREAM du")
	if !sc.r.Scan() || !strings.HasPrefix(sc.r.Text(), "OK ") {
		t.Fatalf("no OK hello: %q", sc.r.Text())
	}
	sc.send(t, "write 1 X 1")
	if !sc.r.Scan() || !strings.Contains(sc.r.Text(), "write_1(X,1)") {
		t.Fatalf("no echo of the first event: %q", sc.r.Text())
	}

	const deadline, slack = 100 * time.Millisecond, time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if took := time.Since(start); took > deadline+slack {
		t.Errorf("Drain took %v, want at most %v", took, deadline+slack)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want %v", err, context.DeadlineExceeded)
	}
	for sc.r.Scan() {
	}
	if err := sc.r.Err(); err != nil {
		t.Errorf("client read %v, want EOF", err)
	}
	handled := make(chan struct{})
	go func() { s.streams.Wait(); close(handled) }()
	select {
	case <-handled:
	case <-time.After(slack):
		t.Fatal("stream handler still running after Drain returned")
	}
	var st StatsSnapshot
	if err := json.Unmarshal(serve(s.Handler(), http.MethodGet, "/statsz", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Streams.Open != 0 || st.Streams.Total != 1 {
		t.Errorf("/statsz streams open=%d total=%d after Drain, want 0 and 1", st.Streams.Open, st.Streams.Total)
	}
}

// TestStreamHelloErrors: malformed helloes and non-monitorable criteria
// are refused with explicit ERR lines.
func TestStreamHelloErrors(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	for _, hello := range []string{
		"NOT A HELLO",
		"STREAM nope",
		"STREAM strictser", // batch-only: no online monitor
		"STREAM du retire=x",
		"STREAM du skipbad strict",
		"STREAM du quiet lossy", // every line read is monitored: none may be dropped
	} {
		sc := dialStream(t, addr, hello)
		if !sc.r.Scan() || !strings.HasPrefix(sc.r.Text(), "ERR ") {
			t.Errorf("hello %q not refused: %q", hello, sc.r.Text())
		}
	}
}

// TestStreamConflictOrderCriteria: the TMS2 and RCO monitors are served
// over the wire like the others — the hello accepts them, per-event
// verdict columns and final verdicts stream back, and a Figure-6-shaped
// stream trips TMS2 (latched, counted in DONE) while RCO stays OK.
func TestStreamConflictOrderCriteria(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)

	// Clean stream: both criteria accept, columns echo per response.
	sc := dialStream(t, addr, "STREAM tms2,rco")
	sc.send(t,
		"write 1 X 1",
		"commit 1",
		"read 2 X 1",
		"commit 2",
		"END",
	)
	lines := sc.collect(t)
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "OK ") {
		t.Fatalf("no OK hello: %q", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "TMS2:ok") || !strings.Contains(joined, "rco-opacity:ok") {
		t.Fatalf("per-event verdict columns missing:\n%s", joined)
	}
	if !strings.Contains(joined, "TMS2: OK") || !strings.Contains(joined, "rco-opacity: OK") {
		t.Fatalf("final verdicts missing:\n%s", joined)
	}
	if done := lastPrefixed(lines, "DONE "); !strings.Contains(done, "violations=0") {
		t.Fatalf("DONE wrong: %q", done)
	}

	// Figure 6: TMS2 orders committed writer T1 before reader T2, whose
	// read of the pre-state then has no legal serialization; RCO accepts.
	sc = dialStream(t, addr, "STREAM tms2,rco quiet")
	sc.send(t,
		"read 1 X 0",
		"write 1 X 1",
		"read 2 X 0",
		"commit 1",
		"write 2 Y 1",
		"commit 2",
		"END",
	)
	lines = sc.collect(t)
	joined = strings.Join(lines, "\n")
	if !strings.Contains(joined, "TMS2: violated") {
		t.Fatalf("TMS2 did not latch the figure-6 violation:\n%s", joined)
	}
	if !strings.Contains(joined, "rco-opacity: OK") {
		t.Fatalf("RCO should accept figure 6:\n%s", joined)
	}
	if done := lastPrefixed(lines, "DONE "); !strings.Contains(done, "violations=1") {
		t.Fatalf("DONE wrong: %q", done)
	}
}

// TestStreamConflictOrderRetirement: TMS2's incremental edge state is
// checkpointed with the retirement window — a long stream stays bounded
// and decided, mirroring ducheck -follow -criteria tms2 -retire.
func TestStreamConflictOrderRetirement(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	sc := dialStream(t, addr, "STREAM tms2 retire=4 quiet")
	lines := make([]string, 0, 81)
	for i := 1; i <= 40; i++ {
		lines = append(lines, fmt.Sprintf("write %d X %d", i, i), fmt.Sprintf("commit %d", i))
	}
	lines = append(lines, "END")
	sc.send(t, lines...)
	out := sc.collect(t)
	joined := strings.Join(out, "\n")
	if strings.Contains(joined, "undecided") || strings.Contains(joined, "violated") {
		t.Fatalf("TMS2 degraded under retirement:\n%s", joined)
	}
	var evs, retired, live int
	if _, err := fmt.Sscanf(lastPrefixed(out, "TMS2: "), "TMS2: %d events, %d transactions retired, %d live", &evs, &retired, &live); err != nil {
		t.Fatalf("retirement summary missing or unparsable:\n%s", joined)
	}
	if retired == 0 || live > 9 {
		t.Fatalf("retirement not bounding the window: retired=%d live=%d", retired, live)
	}
}

// TestStreamRetirement: the retirement window bounds monitor memory on a
// long stream and the summary reports retired transactions, mirroring
// ducheck -follow -retire.
func TestStreamRetirement(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	sc := dialStream(t, addr, "STREAM du retire=4 quiet")
	lines := make([]string, 0, 81)
	for i := 1; i <= 40; i++ {
		lines = append(lines, fmt.Sprintf("write %d X %d", i, i), fmt.Sprintf("commit %d", i))
	}
	lines = append(lines, "END")
	sc.send(t, lines...)
	out := sc.collect(t)
	joined := strings.Join(out, "\n")
	if !strings.Contains(joined, "transactions retired") {
		t.Fatalf("retirement summary missing:\n%s", joined)
	}
	var evs, retired, live int
	if _, err := fmt.Sscanf(lastPrefixed(out, "du-opacity: "), "du-opacity: %d events, %d transactions retired, %d live", &evs, &retired, &live); err == nil {
		if retired == 0 || live > 5 {
			t.Fatalf("retirement not bounding the window: retired=%d live=%d", retired, live)
		}
	}
}

// TestAppendSampleCount pins the append clock's sampling rule: a stream
// times its first accepted append and every appendSampleEvery-th after it,
// so n accepted events take exactly ceil(n/64) samples — one for a stream
// shorter than 64, none for a refused event — while StreamEvents still
// counts every event.
func TestAppendSampleCount(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	// Figure 4 and an event the session refuses as ill-formed: 10 events.
	sc := dialStream(t, addr, "STREAM du,opacity")
	sc.send(t, "write 1 X 1", "inv tryc 1", "res read 5 X 1", "read 2 X 1", "write 3 X 1", "commit 3", "res tryc 1 A", "END")
	if done := lastPrefixed(sc.collect(t), "DONE "); done != "DONE events=10 bad=1 dropped=0 violations=1" {
		t.Fatalf("short stream: %q", done)
	}
	if st := s.Stats().Streams; st.Events != 10 || st.AppendSamples != 1 {
		t.Fatalf("short stream: events=%d append_samples=%d, want 10 and 1", st.Events, st.AppendSamples)
	}

	wire, n, err := recordedWire(harness.Workload{Engine: "gl", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 16, OpsPerTxn: 4, ReadFraction: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	go func() { _, _ = conn.Write(append([]byte("STREAM du,tms2 quiet\n"), wire...)) }()
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("DONE events=%d bad=0 dropped=0 violations=0", n); !strings.Contains(string(out), want) {
		t.Fatalf("gl stream: %q, want %q", out, want)
	}
	want := int64(1 + (n+appendSampleEvery-1)/appendSampleEvery)
	if st := s.Stats().Streams; st.Events != int64(10+n) || st.AppendSamples != want {
		t.Fatalf("after a gl stream of %d events: events=%d append_samples=%d, want %d and %d", n, st.Events, st.AppendSamples, 10+n, want)
	}
	if n <= 2*appendSampleEvery || n%appendSampleEvery == 0 {
		t.Fatalf("a gl stream of %d events does not exercise a partial last window", n)
	}
}

// TestAvgAppendNanos: avg_append_nanos is the sampled nanoseconds over the
// samples — not over the events — and 0 with no sample.
func TestAvgAppendNanos(t *testing.T) {
	var m Metrics
	m.AppendNanos.Store(1000)
	m.StreamEvents.Store(192)
	if st := m.snapshot().Streams; st.AvgAppendNanos != 0 || st.AppendSamples != 0 {
		t.Fatalf("no samples: avg_append_nanos=%d append_samples=%d, want 0 and 0", st.AvgAppendNanos, st.AppendSamples)
	}
	m.AppendSamples.Store(3)
	if st := m.snapshot().Streams; st.AvgAppendNanos != 333 || st.AppendSamples != 3 {
		t.Fatalf("1000 ns over 3 samples: avg_append_nanos=%d append_samples=%d, want 333 and 3", st.AvgAppendNanos, st.AppendSamples)
	}
	js, err := json.Marshal(m.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"append_samples":3`) {
		t.Fatalf("/statsz lacks append_samples: %s", js)
	}
}
