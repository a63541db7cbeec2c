package main

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"duopacity/internal/certd"
)

// startCertdStreams spins an in-process certd stream listener for the
// -connect tests.
func startCertdStreams(t *testing.T) string {
	t.Helper()
	s := certd.NewServer(certd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeStreams(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

// TestFollowConnectClean: a clean stream over -connect prints the
// server's per-event verdict lines and final verdicts and exits 0 —
// the networked equivalent of the in-process -follow run.
func TestFollowConnectClean(t *testing.T) {
	addr := startCertdStreams(t)
	stdin := strings.NewReader("write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-criteria", "du,opacity"}, stdin, &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	text := out.String()
	for _, want := range []string{"du-opacity:ok", "du-opacity: OK", "opacity: OK", "DONE events=8 bad=0 dropped=0 violations=0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestFollowConnectViolation: a du-opacity violation streamed to the
// server maps to exit status 1, exactly as the in-process follow does.
func TestFollowConnectViolation(t *testing.T) {
	addr := startCertdStreams(t)
	stdin := strings.NewReader("inv write 1 X 5\nres write 1 X 5 ok\nread 2 X 5\ncommit 2\ncommit 1\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-criteria", "du"}, stdin, &out, &errOut)
	if err != nil || code != 1 {
		t.Fatalf("exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "du-opacity: violated") {
		t.Fatalf("violation verdict missing:\n%s", out.String())
	}
}

// TestFollowConnectStrict: -strict travels in the hello; the server
// kills the stream at the first bad line and the CLI exits 2.
func TestFollowConnectStrict(t *testing.T) {
	addr := startCertdStreams(t)
	stdin := strings.NewReader("write 1 X 1\nnot an event\ncommit 1\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-strict"}, stdin, &out, &errOut)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict over connect: exit %d, err %v", code, err)
	}
}

// TestFollowConnectRetireSkipBad: retirement and skip-bad both apply
// server-side and the summaries stream back.
func TestFollowConnectRetireSkipBad(t *testing.T) {
	addr := startCertdStreams(t)
	var in strings.Builder
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&in, "write %d X %d\ncommit %d\n", i, i, i)
	}
	in.WriteString("garbage line\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-criteria", "du", "-retire", "4", "-skip-bad"}, strings.NewReader(in.String()), &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	text := out.String()
	for _, want := range []string{"transactions retired", "follow: events=80 bad=1", "QUARANTINED 1 bad input line(s):"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestConnectRequiresFollow: -connect outside -follow is an input error.
func TestConnectRequiresFollow(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-connect", "localhost:1", "-"}, strings.NewReader(""), &out, &errOut)
	if code != 2 || err == nil {
		t.Fatalf("exit %d, err %v", code, err)
	}
}

// figure4Then is the paper's Figure 4 (opaque, not du-opaque: du-opacity
// is violated at event 9 and stays latched), its reader's commit, then n
// clean sequential transactions.
func figure4Then(n int) string {
	var b strings.Builder
	b.WriteString("write 1 X 1\ninv tryc 1\nread 2 X 1\nwrite 3 X 1\ncommit 3\nres tryc 1 A\ncommit 2\n")
	for k := 4; k < 4+n; k++ {
		fmt.Fprintf(&b, "write %d X %d\ncommit %d\n", k, k, k)
	}
	return b.String()
}

// followBoth runs one follow in process and once more through a certd
// STREAM (-connect), returning stdout and stderr of each.
func followBoth(t *testing.T, criteria, input string) (local, localErr, remote string) {
	t.Helper()
	args := []string{"-follow", "-criteria", criteria, "-retire", "8"}
	var out, errOut, rout, rerr bytes.Buffer
	if code, err := runWith(args, strings.NewReader(input), &out, &errOut); err != nil || code != 1 {
		t.Fatalf("in process: exit %d, err %v", code, err)
	}
	args = append(args, "-connect", startCertdStreams(t))
	if code, err := runWith(args, strings.NewReader(input), &rout, &rerr); err != nil || code != 1 {
		t.Fatalf("-connect: exit %d, err %v", code, err)
	}
	return out.String(), errOut.String(), rout.String()
}

var retirementSummary = regexp.MustCompile(`(?m)^(.+): (\d+) events, (\d+) transactions retired, (\d+) live$`)

// TestFollowBoundedAfterViolation: a latched criterion must not pin the
// follow's memory. Before PR 15 each criterion's monitor owned a stream
// and a latched monitor never retired again, so after Figure 4 the
// du-opacity stream grew without bound ("0 transactions retired, 403
// live") next to opacity's bounded one. With one session the dead decider
// has no say in retirement: every summary line reports the bounded
// window, and no per-event verdict changes.
func TestFollowBoundedAfterViolation(t *testing.T) {
	const n = 400
	local, _, remote := followBoth(t, "du,opacity", figure4Then(n))
	for name, text := range map[string]string{"ducheck -follow": local, "certd STREAM": remote} {
		sums := retirementSummary.FindAllStringSubmatch(text, -1)
		if len(sums) != 2 {
			t.Fatalf("%s: want one retirement summary line per criterion, got %q", name, sums)
		}
		for _, m := range sums {
			if events, _ := strconv.Atoi(m[2]); events != 12+4*n {
				t.Errorf("%s: %s: events = %d, want %d", name, m[1], events, 12+4*n)
			}
			if live, _ := strconv.Atoi(m[4]); live > 17 {
				t.Errorf("%s: %s: %d transactions live after %d clean ones with -retire 8, want at most 17", name, m[1], live, n)
			}
		}
		idx := 0
		for _, l := range strings.Split(text, "\n") {
			if !strings.Contains(l, "  res ") {
				continue
			}
			for strings.Fields(l)[0] != strconv.Itoa(idx) {
				idx++ // invocations carry no columns
			}
			want := "  du-opacity:ok  opacity:ok"
			if idx >= 9 {
				want = "  du-opacity:VIOLATED  opacity:ok"
			}
			if !strings.HasSuffix(l, want) {
				t.Fatalf("%s: event %d: %q, want columns %q", name, idx, l, want)
			}
		}
		if idx != 12+4*n-1 {
			t.Errorf("%s: last response echoed is event %d, want %d", name, idx, 12+4*n-1)
		}
	}
}

// TestFollowOneAnswerPerEvent: well-formedness is criterion-independent,
// so an event is accepted or refused once, for every criterion. Before
// PR 15 the per-criterion streams of TestFollowBoundedAfterViolation's
// follow disagreed about which transactions exist (opacity had retired
// T10, latched du-opacity had not), so "read 10 X 1" was consumed by one
// monitor and refused by the next, and the outcome — the skipped note,
// the event counts — depended on the order of -criteria. With one stream
// it cannot.
func TestFollowOneAnswerPerEvent(t *testing.T) {
	input := figure4Then(400) + "read 10 X 1\n"
	type outcome struct {
		notes  string   // stderr in process: the "(skipped)" notes
		bad    []string // BAD lines of the STREAM
		done   string
		events map[string]string // criterion -> events in its summary line
	}
	run := func(criteria string) outcome {
		local, localErr, remote := followBoth(t, criteria, input)
		o := outcome{notes: localErr, events: map[string]string{}}
		for _, l := range strings.Split(remote, "\n") {
			if strings.HasPrefix(l, "BAD ") {
				o.bad = append(o.bad, l)
			} else if strings.HasPrefix(l, "DONE ") {
				o.done = l
			}
		}
		for _, text := range []string{local, remote} {
			for _, m := range retirementSummary.FindAllStringSubmatch(text, -1) {
				if prev, ok := o.events[m[1]]; ok && prev != m[2] {
					t.Errorf("-criteria %s: %s counts %s events in one front end and %s in the other", criteria, m[1], prev, m[2])
				}
				o.events[m[1]] = m[2]
			}
		}
		if len(o.events) != 2 || o.events["du-opacity"] != o.events["opacity"] {
			t.Errorf("-criteria %s: criteria disagree on the number of events: %v", criteria, o.events)
		}
		return o
	}
	a, b := run("du,opacity"), run("opacity,du")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the outcome depends on the order of -criteria:\n du,opacity: %+v\n opacity,du: %+v", a, b)
	}
}
