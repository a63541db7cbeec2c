package follow

import (
	"bufio"
	"errors"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"duopacity/internal/spec"
)

// TestHelloRoundTrip: the hello has one encoder and one decoder, and they
// are inverses on everything the encoder can produce.
func TestHelloRoundTrip(t *testing.T) {
	for _, o := range []Options{
		{Criteria: []spec.Criterion{spec.DUOpacity}},
		{Criteria: spec.MonitorableCriteria(), Retire: 32},
		{Criteria: []spec.Criterion{spec.Opacity, spec.DUOpacity}, Retire: 8, NodeLimit: 5000, SkipBad: true},
		{Criteria: []spec.Criterion{spec.TMS2, spec.RCO}, Strict: true, Quiet: true},
		{Criteria: []spec.Criterion{spec.FinalStateOpacity}, NodeLimit: 1, Quiet: true},
		// Batch-only criteria have wire names too; refusing them is New's job.
		{Criteria: []spec.Criterion{spec.StrictSerializability, spec.Serializability}},
	} {
		got, err := ParseHello(o.Hello())
		if err != nil {
			t.Errorf("ParseHello(%q): %v", o.Hello(), err)
			continue
		}
		if !reflect.DeepEqual(got, o) {
			t.Errorf("ParseHello(%q) = %+v, want %+v", o.Hello(), got, o)
		}
	}
	if got, want := (Options{Criteria: []spec.Criterion{spec.DUOpacity}, Retire: 8, Quiet: true}).Hello(), "STREAM du retire=8 quiet"; got != want {
		t.Errorf("Hello() = %q, want %q (the load harness's hello)", got, want)
	}
}

// TestParseHelloErrors: what the decoder refuses. (Non-monitorable
// criteria parse; New refuses them — see certd's TestStreamHelloErrors
// for the refusals as a client sees them.)
func TestParseHelloErrors(t *testing.T) {
	for _, hello := range []string{
		"",
		"NOT A HELLO",
		"STREAM",
		"STREAM nope",
		"STREAM du,",
		"STREAM du retire=x",
		"STREAM du retire=-1",
		"STREAM du nodelimit=",
		"STREAM du bogus",
		"STREAM du skipbad strict",
		"STREAM du quiet lossy", // every line read is monitored: none may be dropped
	} {
		if o, err := ParseHello(hello); err == nil {
			t.Errorf("ParseHello(%q) = %+v, want an error", hello, o)
		}
	}
	if _, err := New(Options{Criteria: []spec.Criterion{spec.StrictSerializability}}, nil); err == nil ||
		!strings.Contains(err.Error(), spec.MonitorableNames()) {
		t.Errorf("New with a batch-only criterion: err = %v, want one listing the monitorable criteria", err)
	}
}

// TestDoneRoundTrip: one DONE encoder, one decoder, inverses; and the
// decoder takes nothing but a DONE line.
func TestDoneRoundTrip(t *testing.T) {
	for _, d := range []Done{
		{},
		{Events: 8},
		{Events: 176, Bad: 1, Violations: 1},
		{Events: 1 << 40, Bad: 12, Violations: 5},
	} {
		if got, ok := ParseDone(d.String()); !ok || got != d {
			t.Errorf("ParseDone(%q) = %+v, %v; want %+v", d.String(), got, ok, d)
		}
		wantExit := 0
		if d.Violations > 0 {
			wantExit = 1
		}
		if d.Exit() != wantExit {
			t.Errorf("%+v: Exit() = %d, want %d", d, d.Exit(), wantExit)
		}
	}
	for _, line := range []string{
		"", "DONE", "du-opacity: OK", "ERR busy",
		"DONE events=1 bad=0 dropped=0",
		"DONE events=1 bad=0 dropped=3 violations=0",
		"DONE events=1 bad=0 dropped=0 violations=0 extra",
		"DONE events=x bad=0 dropped=0 violations=0",
		" DONE events=1 bad=0 dropped=0 violations=0",
	} {
		if d, ok := ParseDone(line); ok {
			t.Errorf("ParseDone(%q) = %+v, want not ok", line, d)
		}
	}
}

var helloOption = regexp.MustCompile(`^(skipbad|strict|quiet|(retire|nodelimit)=[0-9]+)$`)

// FuzzParseHello: the decoder never panics, and accepts only what Hello
// can produce modulo field order, repetition and number spelling: every
// accepted line is "STREAM", a list of known criteria, then fields of the
// shapes Hello emits (never skipbad together with strict); the options it
// decodes to re-encode to a canonical hello that decodes to the same
// options and whose fields all occur in the line.
func FuzzParseHello(f *testing.F) {
	for _, seed := range []string{
		"STREAM du",
		"STREAM du,tms2,rco,opacity,finalstate retire=32",
		"STREAM du retire=8 quiet",
		"STREAM opacity,du nodelimit=500 skipbad quiet",
		"STREAM du strict",
		"STREAM du skipbad strict",
		"STREAM du retire=x",
		"STREAM  du-opacity\tquiet quiet retire=007",
		"NOT A HELLO",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := ParseHello(line)
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "STREAM" || len(o.Criteria) == 0 {
			t.Fatalf("accepted %q as %+v", line, o)
		}
		for _, f := range fields[2:] {
			if !helloOption.MatchString(f) {
				t.Fatalf("accepted %q with option field %q", line, f)
			}
		}
		if o.SkipBad && o.Strict {
			t.Fatalf("accepted %q with both skipbad and strict", line)
		}
		canon := o.Hello()
		again, err := ParseHello(canon)
		if err != nil || !reflect.DeepEqual(again, o) {
			t.Fatalf("%q decodes to %+v, whose hello %q decodes to %+v (err %v)", line, o, canon, again, err)
		}
		// Every keyword of the canonical hello was asked for by the line.
		given := fields[2:]
		sort.Strings(given)
		for _, f := range strings.Fields(canon)[2:] {
			if strings.Contains(f, "=") {
				continue // numbers may be spelled differently (retire=007)
			}
			if i := sort.SearchStrings(given, f); i == len(given) || given[i] != f {
				t.Fatalf("%q decodes to %q: keyword %q was never given", line, canon, f)
			}
		}
	})
}

// TestOutAndOnIdle: the flush rule on its own. A scanner over OnIdle calls
// the hook once per read of the input, however many lines the read held,
// and a failing hook ends the input with its error; Idle writes only when
// something is buffered, Full only past flushAt, and both count.
func TestOutAndOnIdle(t *testing.T) {
	var sink strings.Builder
	out := NewOut(&sink)
	idles := 0
	sc := bufio.NewScanner(OnIdle(strings.NewReader("a\nb\nc\n"), func() error {
		idles++
		return out.Idle()
	}))
	lines := 0
	for sc.Scan() {
		lines++
		_, _ = out.Write(sc.Bytes())
	}
	// One read carried all three lines, a second found the end.
	if lines != 3 || idles != 2 || out.IdleFlushes != 1 || sink.String() != "abc" {
		t.Errorf("%d lines, %d idle calls, %d idle flushes, wrote %q; want 3, 2, 1, \"abc\"", lines, idles, out.IdleFlushes, sink.String())
	}

	if err := out.Full(); err != nil || out.FullFlushes != 0 {
		t.Errorf("Full on an empty buffer: err %v, %d flushes", err, out.FullFlushes)
	}
	_, _ = out.Write(make([]byte, flushAt))
	if _ = out.Full(); out.FullFlushes != 0 {
		t.Error("Full flushed at flushAt, want only past it")
	}
	_, _ = out.Write([]byte{'x'})
	if _ = out.Full(); out.FullFlushes != 1 || out.Buffered() != 0 {
		t.Errorf("Full past flushAt: %d flushes, %d bytes still buffered", out.FullFlushes, out.Buffered())
	}

	boom := errors.New("boom")
	sc = bufio.NewScanner(OnIdle(strings.NewReader("a\n"), func() error { return boom }))
	if sc.Scan() || sc.Err() != boom {
		t.Errorf("failing hook: Scan succeeded or Err() = %v, want the hook's error", sc.Err())
	}
}
