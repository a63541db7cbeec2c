package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// TestFollowEchoLeavesWhenStdinIdle: a producer that pauses sees every
// verdict so far — event k's echo line is readable from stdout before
// event k+1 is written to stdin, in process and through a live certd
// (-connect, where the rule applies three times over: forwarding stdin,
// the server's echo, printing what comes back). Pipes have no buffers, so
// anything held back for a fuller buffer never arrives and the watchdog
// fails the test.
func TestFollowEchoLeavesWhenStdinIdle(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		tail string // what follows the echo lines once stdin ends
	}{
		{"in process", []string{"-follow", "-criteria", "du"}, "du-opacity: OK [T1+]\n"},
		{"connect", []string{"-follow", "-criteria", "du", "-connect", startCertdStreams(t)},
			"du-opacity: OK [T1+]\nDONE events=4 bad=0 dropped=0 violations=0\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdinR, stdin := io.Pipe()
			stdout, stdoutW := io.Pipe()
			watchdog := time.AfterFunc(20*time.Second, func() {
				stdinR.CloseWithError(fmt.Errorf("watchdog"))
				stdoutW.CloseWithError(fmt.Errorf("watchdog: no output within 20s"))
			})
			defer watchdog.Stop()
			type result struct {
				code int
				err  error
			}
			exited := make(chan result, 1)
			go func() {
				var stderr bytes.Buffer
				code, err := runWith(c.args, stdinR, stdoutW, &stderr)
				stdoutW.Close()
				exited <- result{code, err}
			}()
			r := bufio.NewReader(stdout)
			for _, step := range []struct{ send, want string }{
				{"inv write 1 X 1\n", "   0  inv write_1(X,1)            \n"},
				{"res write 1 X 1 ok\n", "   1  res write_1(X,1)->ok          du-opacity:ok\n"},
				{"inv tryc 1\n", "   2  inv tryC_1                  \n"},
				{"res tryc 1 C\n", "   3  res tryC_1->C                 du-opacity:ok\n"},
			} {
				if _, err := io.WriteString(stdin, step.send); err != nil {
					t.Fatalf("writing %q: %v", step.send, err)
				}
				got, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("after %q nothing came back: %v", step.send, err)
				}
				if got != step.want {
					t.Fatalf("after %q: got %q, want %q", step.send, got, step.want)
				}
			}
			stdin.Close()
			rest, err := io.ReadAll(r)
			if err != nil || string(rest) != c.tail {
				t.Fatalf("after end of input: %q (err %v), want %q", rest, err, c.tail)
			}
			if res := <-exited; res.code != 0 || res.err != nil {
				t.Fatalf("exit %d, err %v", res.code, res.err)
			}
		})
	}
}

type countingReader struct {
	r     io.Reader
	calls int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

type countingWriter struct{ calls, bytes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	c.bytes += len(p)
	return len(p), nil
}

// TestFollowWritesBoundedByReads: with stdin never idle, stdout costs a
// write per read of stdin (or per full buffer), not the write per echo
// line it used to.
func TestFollowWritesBoundedByReads(t *testing.T) {
	var in strings.Builder
	const txns = 5000
	for k := 1; k <= txns; k++ {
		fmt.Fprintf(&in, "write %d X %d\ncommit %d\n", k, k, k)
	}
	stdin := &countingReader{r: strings.NewReader(in.String())}
	var stdout countingWriter
	var stderr bytes.Buffer
	code, err := runWith([]string{"-follow", "-criteria", "du", "-retire", "8"}, stdin, &stdout, &stderr)
	if code != 0 || err != nil {
		t.Fatalf("exit %d, err %v", code, err)
	}
	t.Logf("%d events: %d reads of stdin, %d writes (%d bytes) to stdout", 4*txns, stdin.calls, stdout.calls, stdout.bytes)
	// One write per read that found something to say, one per buffer that
	// filled in between, and the summary.
	if limit := stdin.calls + stdout.bytes/(32*1024) + 1; stdout.calls > limit {
		t.Errorf("%d writes to stdout for %d reads of stdin and %d bytes: want at most %d", stdout.calls, stdin.calls, stdout.bytes, limit)
	}
}
