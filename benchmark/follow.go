package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"duopacity"
	"duopacity/internal/harness"
)

// oracle replays a stream through in-process monitors, exactly as the
// server is specified to, and records what every echo line must say.
func oracle(s *stream, criteria []duopacity.Criterion, retire int) error {
	monitors := make([]*duopacity.Monitor, len(criteria))
	for i, c := range criteria {
		var opts []duopacity.CheckOption
		if retire > 0 {
			opts = append(opts, duopacity.WithRetirement(retire))
		}
		m, err := duopacity.NewMonitor(c, opts...)
		if err != nil {
			return err
		}
		monitors[i] = m
	}
	s.suffix = make([][]byte, len(s.events))
	s.violatedAt = -1
	interned := map[string][]byte{}
	var b strings.Builder
	for k, e := range s.events {
		b.Reset()
		for i, m := range monitors {
			v, err := m.Append(e)
			if err != nil {
				return fmt.Errorf("oracle: event %d: %w", k, err)
			}
			if !s.isRes[k] {
				continue
			}
			status := "ok"
			switch {
			case v.Undecided:
				status = "undecided"
			case !v.OK:
				status = "VIOLATED"
				if s.violatedAt < 0 {
					s.violatedAt = k
				}
			}
			fmt.Fprintf(&b, "  %s:%s", criteria[i], status)
		}
		if s.isRes[k] {
			text := b.String()
			if interned[text] == nil {
				interned[text] = []byte(text)
			}
			s.suffix[k] = interned[text]
		}
	}
	s.violations = 0
	for _, m := range monitors {
		if v := m.Verdict(); !v.OK && !v.Undecided {
			s.violations++
		}
	}
	return nil
}

// oracleAll fills in every stream's expectations, using all cores: it
// runs before anything is measured.
func (f *followSpec) oracleAll(in *followInput) error {
	var all []*stream
	for _, c := range in.conns {
		all = append(all, c...)
	}
	return onAllCores(len(all), func(i int) error {
		s := all[i]
		if err := oracle(s, f.criteria, f.Retire); err != nil {
			return err
		}
		if s.violatedAt >= 0 {
			return fmt.Errorf("oracle: a %s-recorded stream is rejected at event %d; the workload must be violation-free", f.Record.Engine, s.violatedAt)
		}
		return nil
	})
}

// onAllCores calls fn(0..n-1) from GOMAXPROCS goroutines and returns the
// first error. It is for the oracles, which run before anything is timed.
func onAllCores(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// pacing turns a session into an open loop: event k is due k/rate after
// the session starts, and nothing is sent past the deadline.
type pacing struct {
	rate     float64
	deadline time.Time
}

// session is the outcome of one STREAM conversation.
type session struct {
	sent   int // events written
	failed int // events not echoed, not counted, or echoed with a status other than the oracle's
	lagMS  []float64
	lateMS []float64
}

// playSession feeds one stream through a STREAM session and checks every
// line that comes back against the oracle.
func playSession(addr, hello string, s *stream, quiet bool, pace *pacing) (session, error) {
	var res session
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(150 * time.Second)) // a wedged server fails the run, never hangs it
	// Final verdict lines carry a witness over the whole live window.
	r := bufio.NewReaderSize(conn, 4<<20)
	if _, err := fmt.Fprintf(conn, "%s\n", hello); err != nil {
		return res, err
	}
	line, err := r.ReadSlice('\n')
	if err != nil || !bytes.HasPrefix(line, []byte("OK ")) {
		return res, fmt.Errorf("hello %q refused: %q %v", hello, line, err)
	}

	t0 := time.Now()
	interval := time.Duration(0)
	if pace != nil {
		interval = time.Duration(float64(time.Second) / pace.rate)
	}
	type written struct {
		n    int
		late []float64
		err  error
	}
	writerDone := make(chan written, 1)
	go func() {
		var w written
		if pace == nil {
			_, w.err = conn.Write(s.wire)
			w.n = len(s.events)
		} else {
			for w.n < len(s.events) && w.err == nil {
				now := time.Now()
				if now.After(pace.deadline) {
					break
				}
				due := int(now.Sub(t0)/interval) + 1
				if due > len(s.events) {
					due = len(s.events)
				}
				if due > w.n {
					_, w.err = conn.Write(s.lines(w.n, due))
					now = time.Now()
					for k := w.n; k < due; k++ {
						w.late = append(w.late, float64(now.Sub(t0)-time.Duration(k)*interval)/float64(time.Millisecond))
					}
					w.n = due
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
		if w.err == nil {
			_, w.err = conn.Write([]byte("END\n"))
		}
		writerDone <- w
	}()

	// abandon closes the connection first, so a writer blocked on a
	// server that stopped reading is released before it is waited for.
	abandon := func(why string) (session, error) {
		conn.Close()
		w := <-writerDone
		return res, fmt.Errorf("%s (writer: %v)", why, w.err)
	}
	good, next := 0, 0
	var done map[string]int
	for done == nil {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return abandon(fmt.Sprintf("stream ended without DONE after %d echo lines: %v", next, err))
		}
		body := bytes.TrimLeft(line, " ")
		switch {
		case len(body) > 0 && body[0] >= '0' && body[0] <= '9':
			// An echo line: "<index>  <event>[  <criterion>:<status>]...".
			k := next
			next++
			if k >= len(s.events) {
				continue
			}
			if pace != nil {
				res.lagMS = append(res.lagMS, float64(time.Since(t0)-time.Duration(k)*interval)/float64(time.Millisecond))
			}
			if sp := bytes.IndexByte(body, ' '); sp > 0 {
				idx, perr := strconv.Atoi(string(body[:sp]))
				if perr == nil && idx == k && bytes.HasSuffix(line[:len(line)-1], s.suffix[k]) {
					good++
				}
			}
		case bytes.HasPrefix(line, []byte("DONE ")):
			done = map[string]int{}
			for _, f := range strings.Fields(string(line[len("DONE "):])) {
				if key, val, ok := strings.Cut(f, "="); ok {
					done[key], _ = strconv.Atoi(val)
				}
			}
		case bytes.HasPrefix(line, []byte("ERR ")), bytes.HasPrefix(line, []byte("BAD ")):
			return abandon(fmt.Sprintf("server refused input: %s", bytes.TrimSpace(line)))
		}
	}
	w := <-writerDone
	if w.err != nil {
		return res, w.err
	}
	res.sent, res.lateMS = w.n, w.late
	if quiet {
		good = done["events"]
	}
	if good > res.sent || next > res.sent {
		good = 0 // more echoes than events: nothing about this session can be trusted
	}
	res.failed = res.sent - good
	if miss := res.sent - done["events"]; miss > res.failed {
		res.failed = miss
	}
	wantViolations := 0
	if res.sent == len(s.events) {
		wantViolations = s.violations
	}
	if res.failed == 0 && (done["bad"] != 0 || done["dropped"] != 0 || done["violations"] != wantViolations) {
		res.failed = 1
	}
	return res, nil
}

// pass is one barrier-started sweep of every connection over its streams.
type pass struct {
	wall   time.Duration
	events int
	failed int
	lagMS  []float64
	lateMS []float64
}

// runPass plays every connection's streams concurrently: closed loop per
// connection (the next session starts after DONE), or, with pace set,
// an open loop that cycles the streams until the deadline.
func runPass(addr string, f *followSpec, in *followInput, quiet bool, pace *pacing) (pass, error) {
	var (
		mu   sync.Mutex
		p    pass
		ferr error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := range in.conns {
		wg.Add(1)
		go func(streams []*stream) {
			defer wg.Done()
			for i := 0; ; i++ {
				if pace == nil && i == len(streams) {
					return
				}
				if pace != nil && !time.Now().Before(pace.deadline) {
					return
				}
				res, err := playSession(addr, f.hello(quiet), streams[i%len(streams)], quiet, pace)
				mu.Lock()
				p.events += res.sent
				p.failed += res.failed
				p.lagMS = append(p.lagMS, res.lagMS...)
				p.lateMS = append(p.lateMS, res.lateMS...)
				if err != nil && ferr == nil {
					ferr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(in.conns[c])
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p, ferr
}

// measurement is what an untraced run took from the running system,
// before it is turned into metrics.
type measurement struct {
	opsPerS    []float64 // one value per pass or round
	lagMS      []float64 // follow: every paced event; farm: one value per round
	cpuSeconds float64   // follow: certd serve; farm: coordinator + workers
	ops        int       // operations cpuSeconds was spent on
	attempted  int
	failed     int
}

// measureFollow runs the saturation phase (barrier-started closed-loop
// passes until its share of the time is used) and then the paced phase.
func measureFollow(sys *system, f *followSpec, in *followInput, seconds float64) (*measurement, error) {
	m := &measurement{}
	if _, err := runPass(sys.streamAddr, f, in, false, nil); err != nil { // warm-up, discarded
		return nil, err
	}
	budget := time.Duration(seconds * f.SaturationShare * float64(time.Second))
	cpu0, err := sys.cpu(false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		p, err := runPass(sys.streamAddr, f, in, false, nil)
		if err != nil {
			return nil, err
		}
		m.opsPerS = append(m.opsPerS, float64(p.events)/p.wall.Seconds())
		m.ops += p.events
		m.failed += p.failed
		// Stop when the next pass would end further from the budget than this one did.
		if left := budget - time.Since(start); len(m.opsPerS) >= 3 && left < p.wall/2 {
			break
		}
	}
	cpu1, err := sys.cpu(false)
	if err != nil {
		return nil, err
	}
	m.cpuSeconds = cpu1 - cpu0

	pacedFor := time.Duration(seconds * (1 - f.SaturationShare) * float64(time.Second))
	paced, err := runPass(sys.streamAddr, f, in, false, &pacing{rate: f.PacedEventsPerS, deadline: time.Now().Add(pacedFor)})
	if err != nil {
		return nil, err
	}
	m.lagMS = paced.lagMS
	m.attempted = m.ops + paced.events
	m.failed += paced.failed
	return m, nil
}

// probe plants a du-opacity violation: a ple-recorded history (in-place
// writes) whose latch index the oracle computes and the server must echo
// at exactly that event. It returns attempted and failed events.
func probe(sys *system, seed int64) (attempted, failed int, err error) {
	f := &followSpec{Criteria: []string{"du", "finalstate"}, criteria: []duopacity.Criterion{duopacity.DUOpacity, duopacity.FinalStateOpacity}}
	for try := 0; try < 64; try++ {
		s, err := recordStream(harness.Workload{Engine: "ple", Goroutines: 3, TxnsPerGoroutine: 4, OpsPerTxn: 3, Objects: 3, Seed: subSeed(seed, 9999, try)})
		if err != nil {
			return 0, 0, err
		}
		if err := oracle(s, f.criteria, 0); err != nil {
			return 0, 0, err
		}
		if s.violatedAt < 0 {
			continue // this schedule never read an uncommitted write
		}
		res, err := playSession(sys.streamAddr, f.hello(false), s, false, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("probe: %w", err)
		}
		return res.sent, res.failed, nil
	}
	return 0, 0, fmt.Errorf("probe: no ple schedule out of 64 violated du-opacity")
}
