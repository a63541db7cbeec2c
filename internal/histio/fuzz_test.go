package histio

import (
	"strings"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/litmus"
)

// FuzzParse checks the parser never panics and that everything it accepts
// round-trips through Format into an equivalent history. The litmus
// figures seed the corpus (go test runs the seeds; go test -fuzz explores
// further).
func FuzzParse(f *testing.F) {
	for _, c := range litmus.Cases() {
		f.Add(FormatString(c.H))
	}
	f.Add("write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n")
	f.Add("# comment\n\ninv read 1 X\nres read 1 X A\n")
	f.Add("abort 1\nwrite 2 Y -3\ncommit 2 A\n")
	f.Add("inv tryc 1\nres tryc 1 C\n")
	f.Add("read 1 X 9999999999999\n")
	f.Fuzz(func(t *testing.T, src string) {
		h, err := ParseString(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out := FormatString(h)
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n%s", err, out)
		}
		if back.Len() != h.Len() || !back.Equivalent(h) {
			t.Fatalf("round trip changed the history:\nin:\n%s\nout:\n%s", src, out)
		}
	})
}

// FuzzParseStability feeds adversarial separators and partial tokens.
func FuzzParseStability(f *testing.F) {
	f.Add("inv")
	f.Add("res read")
	f.Add("write 1")
	f.Add("commit")
	f.Add(strings.Repeat("read 1 X 0\n", 100))
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseString(src) // must not panic
	})
}

// FuzzParseEvents targets the line-level entry point used by streaming
// consumers: it must never panic, and it must answer as the parser it
// replaced (refAppendEvents) — the same events, or the same error message
// and no events.
func FuzzParseEvents(f *testing.F) {
	f.Add("write 1 X 1")
	f.Add("read 2 X A")
	f.Add("commit 1 A")
	f.Add("abort 9")
	f.Add("inv read 1 X")
	f.Add("res write 1 X 1 ok")
	f.Add("res tryc 1 C")
	f.Add("# comment only")
	f.Add("")
	f.Add("write 1 X 1 # trailing")
	f.Add("inv\ttryc\t1")
	f.Add("read 1 X 9999999999999999999999")
	f.Add("res write 1 X 1 ok extra")
	f.Add("res\u00a0read 1\x1cX 2")
	f.Fuzz(func(t *testing.T, line string) {
		evs, err := ParseEvents(line)
		want, wantErr := refAppendEvents(nil, line)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseEvents(%q) error %v, reference %v", line, err, wantErr)
		}
		if len(evs) != len(want) {
			t.Fatalf("ParseEvents(%q) = %v, reference %v", line, evs, want)
		}
		for i, e := range evs {
			if e != want[i] {
				t.Fatalf("ParseEvents(%q) event %d = %v, reference %v", line, i, e, want[i])
			}
		}
	})
}

// FuzzEventRoundTrip drives the encoder with fuzz-chosen field values:
// every canonical event shape over the sanitized inputs must survive
// FormatEvent -> ParseEvents verbatim (the wire-protocol contract of
// cmd/certd streams and ducheck -follow -connect).
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(uint16(1), "X", int64(0))
	f.Add(uint16(7), "Y", int64(-9))
	f.Add(uint16(130), "obj_1", int64(1<<40))
	f.Fuzz(func(t *testing.T, txn uint16, obj string, val int64) {
		if txn == 0 {
			txn = 1
		}
		// Object names travel as whitespace-delimited tokens; '#' starts a
		// comment. Anything else is legal on the wire.
		if obj == "" || strings.ContainsAny(obj, " \t\n\r#") {
			obj = "X"
		}
		for _, e := range eventShapes(history.TxnID(txn), history.Var(obj), history.Value(val)) {
			line := FormatEvent(e)
			back, err := ParseEvents(line)
			if err != nil {
				t.Fatalf("ParseEvents(%q): %v", line, err)
			}
			if len(back) != 1 || back[0] != e {
				t.Fatalf("round trip changed event: %v -> %q -> %v", e, line, back)
			}
		}
	})
}
