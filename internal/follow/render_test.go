package follow

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// The three renderers on the follow path — history.Event.AppendText (and
// String through it), histio.AppendEvent (FormatEvent, WriteEvents) and
// the echo line — are built with strconv appends. The fmt-based renderings
// they replaced stay here as the references they must match byte for byte.

// refEvent renders as history.Event.String did.
type refEvent history.Event

func (e refEvent) String() string {
	switch {
	case e.Kind == history.Inv && e.Op == history.OpRead:
		return fmt.Sprintf("inv read_%d(%s)", e.Txn, e.Obj)
	case e.Kind == history.Inv && e.Op == history.OpWrite:
		return fmt.Sprintf("inv write_%d(%s,%d)", e.Txn, e.Obj, e.Arg)
	case e.Kind == history.Inv:
		return fmt.Sprintf("inv %s_%d", e.Op, e.Txn)
	case e.Op == history.OpRead && e.Out == history.OutOK:
		return fmt.Sprintf("res read_%d(%s)->%d", e.Txn, e.Obj, e.Val)
	case e.Op == history.OpRead:
		return fmt.Sprintf("res read_%d(%s)->%s", e.Txn, e.Obj, e.Out)
	case e.Op == history.OpWrite:
		return fmt.Sprintf("res write_%d(%s,%d)->%s", e.Txn, e.Obj, e.Arg, e.Out)
	default:
		return fmt.Sprintf("res %s_%d->%s", e.Op, e.Txn, e.Out)
	}
}

// refFormatEvent renders as histio.FormatEvent did.
func refFormatEvent(e history.Event) string {
	switch {
	case e.Kind == history.Inv && e.Op == history.OpRead:
		return fmt.Sprintf("inv read %d %s", e.Txn, e.Obj)
	case e.Kind == history.Inv && e.Op == history.OpWrite:
		return fmt.Sprintf("inv write %d %s %d", e.Txn, e.Obj, e.Arg)
	case e.Kind == history.Inv && e.Op == history.OpTryCommit:
		return fmt.Sprintf("inv tryc %d", e.Txn)
	case e.Kind == history.Inv && e.Op == history.OpTryAbort:
		return fmt.Sprintf("inv trya %d", e.Txn)
	case e.Op == history.OpRead && e.Out == history.OutOK:
		return fmt.Sprintf("res read %d %s %d", e.Txn, e.Obj, e.Val)
	case e.Op == history.OpRead:
		return fmt.Sprintf("res read %d %s A", e.Txn, e.Obj)
	case e.Op == history.OpWrite && e.Out == history.OutOK:
		return fmt.Sprintf("res write %d %s %d ok", e.Txn, e.Obj, e.Arg)
	case e.Op == history.OpWrite:
		return fmt.Sprintf("res write %d %s %d A", e.Txn, e.Obj, e.Arg)
	case e.Op == history.OpTryCommit && e.Out == history.OutCommit:
		return fmt.Sprintf("res tryc %d C", e.Txn)
	case e.Op == history.OpTryCommit:
		return fmt.Sprintf("res tryc %d A", e.Txn)
	default:
		return fmt.Sprintf("res trya %d A", e.Txn)
	}
}

// refEcho renders the echo line as follow.echo did.
func refEcho(i int, e history.Event, vs []spec.Verdict) string {
	line := fmt.Sprintf("%4d  %-28v", i, refEvent(e))
	if e.Kind == history.Res {
		for _, v := range vs {
			line += "  " + v.Criterion.String() + ":" + v.Status()
		}
	}
	return line + "\n"
}

// echoIndexes straddle every width of the "%4d" column, and past it.
var echoIndexes = []int{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456789}

// checkRenderers compares all three renderers with their references on e.
func checkRenderers(t *testing.T, f *Follow, vs []spec.Verdict, e history.Event) {
	t.Helper()
	if got, want := e.String(), refEvent(e).String(); got != want {
		t.Errorf("Event.String(%#v) = %q, fmt rendering %q", e, got, want)
	}
	if got, want := string(e.AppendText([]byte("pre"))), "pre"+refEvent(e).String(); got != want {
		t.Errorf("Event.AppendText(%#v) = %q, want %q", e, got, want)
	}
	if got, want := histio.FormatEvent(e), refFormatEvent(e); got != want {
		t.Errorf("FormatEvent(%#v) = %q, fmt rendering %q", e, got, want)
	}
	var sb strings.Builder
	if err := histio.WriteEvents(&sb, []history.Event{e, e}); err != nil {
		t.Fatal(err)
	}
	if want := strings.Repeat(refFormatEvent(e)+"\n", 2); sb.String() != want {
		t.Errorf("WriteEvents(%#v twice) = %q, want %q", e, sb.String(), want)
	}
	for _, i := range echoIndexes {
		if got, want := string(f.appendEcho(nil, i, e, vs)), refEcho(i, e, vs); got != want {
			t.Errorf("echo %d of %#v:\n got %q\nwant %q", i, e, got, want)
		}
	}
}

// TestRenderersMatchFmt: every (Kind, Op, Out) combination — the
// undeclared values with their OpKind(n) / Outcome(n) fallbacks included —
// over hostile field values: negative and 19-digit numbers, multi-byte
// names around the echo's 28-rune column ("%-28v" pads by rune, not byte),
// names past it, invalid UTF-8; then whatever testing/quick comes up with.
// The echo is checked on a five-criteria follow and a one-criterion one,
// each under verdict vectors that include all ok (the prerendered suffix)
// and, on five criteria, all ok but one column, for each column.
func TestRenderersMatchFmt(t *testing.T) {
	for _, criteria := range [][]spec.Criterion{spec.MonitorableCriteria(), {spec.DUOpacity}} {
		f, err := New(Options{Criteria: criteria}, NewOut(io.Discard))
		if err != nil {
			t.Fatal(err)
		}
		checkRenderersOver(t, f, echoVerdicts(criteria))
	}
}

// echoVerdicts returns verdict vectors over criteria: ok, undecided and
// VIOLATED by column in turn; all ok; and for each column c, all ok but c.
func echoVerdicts(criteria []spec.Criterion) [][]spec.Verdict {
	vector := func(status func(i int) (ok, undecided bool)) []spec.Verdict {
		vs := make([]spec.Verdict, len(criteria))
		for i, c := range criteria {
			vs[i] = spec.Verdict{Criterion: c}
			vs[i].OK, vs[i].Undecided = status(i)
		}
		return vs
	}
	var verdicts [][]spec.Verdict
	for shift := 0; shift < 3; shift++ {
		verdicts = append(verdicts, vector(func(i int) (bool, bool) { return (i+shift)%3 == 0, (i+shift)%3 == 1 }))
	}
	verdicts = append(verdicts, vector(func(int) (bool, bool) { return true, false }))
	for c := range criteria {
		verdicts = append(verdicts, vector(func(i int) (bool, bool) { return i != c, i == c && c%2 == 1 }))
	}
	return verdicts
}

// checkRenderersOver checks the renderers on every event shape and on
// testing/quick's events, rotating through the verdict vectors.
func checkRenderersOver(t *testing.T, f *Follow, verdicts [][]spec.Verdict) {
	t.Helper()
	values := []history.Value{0, 7, -1, math.MaxInt64, math.MinInt64, 1234567890123456789}
	names := []history.Var{
		"X", "", "obj-0",
		"héllo→wörld",                        // 11 runes, 15 bytes
		history.Var(strings.Repeat("é", 8)),  // "inv read_1(" + 8 runes + ")" is 20 runes, 28 bytes
		history.Var(strings.Repeat("é", 16)), // 28 runes exactly for inv read_1(...)
		history.Var(strings.Repeat("é", 17)),
		history.Var(strings.Repeat("x", 40)),
		"\xff\xfe", "a\xc3", "with space", "new\nline", "tab\t#hash",
	}
	n := 0
	for kind := history.EventKind(0); kind <= 3; kind++ {
		for op := history.OpKind(0); op <= 6; op++ {
			for out := history.Outcome(0); out <= 5; out++ {
				for i, obj := range names {
					e := history.Event{
						Kind: kind, Op: op, Out: out, Obj: obj,
						Txn: []history.TxnID{1, 42, -5, math.MaxInt64}[(i+n)%4],
						Arg: values[(i+n)%len(values)],
						Val: values[(i+n+1)%len(values)],
					}
					checkRenderers(t, f, verdicts[n%len(verdicts)], e)
					n++
				}
			}
		}
	}
	err := quick.Check(func(kind, op, out uint8, txn int64, obj string, arg, val int64) bool {
		e := history.Event{
			Kind: history.EventKind(kind % 4), Op: history.OpKind(op % 7), Out: history.Outcome(out % 6),
			Txn: history.TxnID(txn), Obj: history.Var(obj), Arg: history.Value(arg), Val: history.Value(val),
		}
		checkRenderers(t, f, verdicts[int(kind)%len(verdicts)], e)
		return !t.Failed()
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

// recordedLines records one deterministic gl schedule and returns its
// events and their event lines.
func recordedLines(t *testing.T) ([]history.Event, [][]byte) {
	t.Helper()
	h, _, err := harness.RunInterleaved(harness.Workload{Engine: "gl", Goroutines: 4, TxnsPerGoroutine: 250, Objects: 16, OpsPerTxn: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, h.Len())
	for i, e := range h.Events() {
		lines[i] = histio.AppendEvent(nil, e)
	}
	return h.Events(), lines
}

// TestEchoAllocs: a warm echo line costs no allocation.
func TestEchoAllocs(t *testing.T) {
	f, err := New(Options{Criteria: spec.MonitorableCriteria()}, NewOut(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]spec.Verdict, len(spec.MonitorableCriteria()))
	for i, c := range spec.MonitorableCriteria() {
		vs[i] = spec.Verdict{Criterion: c, OK: true}
	}
	events, _ := recordedLines(t)
	k := 0
	avg := testing.AllocsPerRun(len(events)-1, func() {
		f.echo(events[k], vs)
		f.events++
		k++
	})
	if avg != 0 {
		t.Errorf("echo allocates %.2f objects per event, want 0", avg)
	}
}

// TestLineAllocatesWhatAppendDoes: a warm Follow.Line — parse into the
// reused slice with interned names, Session.Append, echo into the output
// buffer — allocates what its Session.Append calls allocate and not one
// object more. Counted on one session (two sessions fed the same events
// need not allocate alike: map growth is seeded), by bracketing the
// appends inside the lines: mallocs during Line calls minus mallocs during
// their Append calls must be zero over the second half of a recorded
// stream, the first half having warmed the scratch.
func TestLineAllocatesWhatAppendDoes(t *testing.T) {
	_, lines := recordedLines(t)
	f, err := New(Options{Criteria: spec.MonitorableCriteria(), Retire: 32}, NewOut(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	// A collection's mark workers allocate too, on whichever side of the
	// bracket the scheduler puts them: one collection up front, none while
	// counting. So does the scheduler when it starts another thread (its
	// m and g records, about five objects), which the stop-the-world of
	// each count may ask for while other Ps stand idle: one P while
	// counting, as testing.AllocsPerRun does.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var inAppend uint64
	appendEvent := f.Append
	f.Append = func(e history.Event) ([]spec.Verdict, error) {
		before := mallocs()
		vs, err := appendEvent(e)
		inAppend += mallocs() - before
		return vs, err
	}
	half := len(lines) / 2
	for i, line := range lines[:half] {
		if bad := f.Line(i+1, line); bad != nil {
			t.Fatal(bad)
		}
	}
	inAppend = 0
	before := mallocs()
	for i, line := range lines[half:] {
		if bad := f.Line(half+i+1, line); bad != nil {
			t.Fatal(bad)
		}
	}
	inLine := mallocs() - before
	if inLine != inAppend {
		t.Errorf("%d warm lines allocated %d objects, their Session.Append calls %d: the follow path adds %d",
			len(lines)-half, inLine, inAppend, int64(inLine)-int64(inAppend))
	}
	if inAppend == 0 {
		t.Errorf("Session.Append allocated nothing over %d events: the bracket is not measuring", len(lines)-half)
	}
}

// TestWarmFollowAllocs gates what a follow costs once released follows
// have handed their session streams back: the follow-concurrent shape
// (tl2, 4 x 50 transactions, 128 objects, du-opacity at retire 32) fed as
// certd feeds it, one new follow per stream, finished and so released. The
// first pass warms the pool; over the second every session takes a
// stream a released one handed back, and retirements rebuild into the
// session's spare, so allocations must stay at most 0.25 per event
// (about 1.3 while each session and each retirement built a new stream).
// Counted with the collector off and one P, as in
// TestLineAllocatesWhatAppendDoes; not under -race, where sync.Pool drops
// Puts.
func TestWarmFollowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	var streams [][][]byte
	events := 0
	for i := 0; i < 8; i++ {
		// The seeds of the benchmark's first eight streams at -seed 1.
		h, _, err := harness.RunInterleaved(harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 128, OpsPerTxn: 4, ReadFraction: 0.5, Seed: int64(1_000_004 + 101*i)})
		if err != nil {
			t.Fatal(err)
		}
		var lines [][]byte
		for _, e := range h.Events() {
			lines = append(lines, histio.AppendEvent(nil, e))
		}
		streams = append(streams, lines)
		events += len(lines)
	}
	pass := func() {
		for _, lines := range streams {
			f, err := New(Options{Criteria: []spec.Criterion{spec.DUOpacity}, Retire: 32}, NewOut(io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range lines {
				if bad := f.Line(i+1, line); bad != nil {
					t.Fatal(bad)
				}
			}
			if d := f.Finish(io.Discard, "QUARANTINED"); d.Violations != 0 {
				t.Fatalf("a tl2 stream violated du-opacity: %v", d)
			}
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	pass()
	runtime.ReadMemStats(&ms)
	perEvent := float64(ms.Mallocs-before) / float64(events)
	t.Logf("%d streams, %d events: %.3f allocations per event", len(streams), events, perEvent)
	if perEvent > 0.25 {
		t.Errorf("%.3f allocations per event on the second pass; want at most 0.25", perEvent)
	}
}
