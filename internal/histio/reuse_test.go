package histio

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"duopacity/internal/history"
)

// TestAppendEventsReuse pins the reuse entry point against ParseEvents
// line by line: the same events appended to what dst held, the same
// errors with dst returned as it came, and — the point of it — names that
// do not alias the line buffer, which the caller is free to overwrite.
func TestAppendEventsReuse(t *testing.T) {
	lines := []string{
		"write 1 X 1", "read 2 obj-0 A", "commit 1 A", "abort 3", "",
		"inv read 4 X", "res read 4 X -7", "inv write 4 héllo 9", "res write 4 héllo 9 ok",
		"inv tryc 4", "res tryc 4 C", "inv trya 5", "res trya 5 A", "# comment", "res read 4 X 1 # trailing",
		"nonsense", "read 1 X", "res write 1 X 1 no", "write 0 X 1", "commit 1 X", "inv read 1 X extra words here and more",
	}
	names := Names{}
	var dst, all []history.Event
	buf := make([]byte, 0, 64)
	for _, line := range lines {
		want, wantErr := ParseEvents(line)
		buf = append(buf[:0], line...)
		before := len(dst)
		var err error
		dst, err = AppendEvents(dst, buf, names)
		for i := range buf {
			buf[i] = '!' // the caller's buffer is its own again
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("AppendEvents(%q) error %v, ParseEvents %v", line, err, wantErr)
		}
		if len(dst)-before != len(want) {
			t.Fatalf("AppendEvents(%q) appended %d events, ParseEvents returned %d", line, len(dst)-before, len(want))
		}
		all = append(all, want...)
	}
	for i := range all {
		if dst[i] != all[i] {
			t.Fatalf("event %d: reuse entry %v, ParseEvents %v", i, dst[i], all[i])
		}
	}
	if len(names) != 3 {
		t.Fatalf("interned %d names, want 3 (X, obj-0, héllo): %v", len(names), names)
	}
}

// TestNamesBounded: a stream that keeps inventing object names still
// parses; past maxNames the names are fresh strings, not interned.
func TestNamesBounded(t *testing.T) {
	names := Names{}
	var dst []history.Event
	for i := 0; i < maxNames+100; i++ {
		var err error
		if dst, err = AppendEvents(dst[:0], []byte(fmt.Sprintf("inv read 1 o%d", i)), names); err != nil {
			t.Fatal(err)
		}
		if want := history.Var(fmt.Sprintf("o%d", i)); dst[0].Obj != want {
			t.Fatalf("name %d parsed as %q", i, dst[0].Obj)
		}
	}
	if len(names) != maxNames {
		t.Fatalf("interned %d names, want the bound %d", len(names), maxNames)
	}
}

// TestParseReuseAllocs: parsing into a reused slice, out of a reused line
// buffer, with warm names, allocates nothing — for event lines, shorthand
// pairs, comments and blank lines alike.
func TestParseReuseAllocs(t *testing.T) {
	var lines [][]byte
	for _, e := range eventShapes(1234, "X17", -42) {
		lines = append(lines, AppendEvent(nil, e))
	}
	for _, l := range []string{"write 7 Y 1", "read 8 Y 1", "read 8 Y A", "commit 7", "abort 9", "# comment", "", "  write 7 Y 2 A  # trailing"} {
		lines = append(lines, []byte(l))
	}
	names := Names{}
	var dst []history.Event
	parseAll := func() {
		for _, l := range lines {
			var err error
			if dst, err = AppendEvents(dst[:0], l, names); err != nil {
				t.Fatal(err)
			}
		}
	}
	parseAll()
	if avg := testing.AllocsPerRun(100, parseAll); avg != 0 {
		t.Errorf("parsing %d warm lines into a reused slice allocates %.2f objects, want 0", len(lines), avg)
	}
}

// TestFieldsMatchesStringsFields: the in-place tokenizer splits exactly
// where strings.Fields does — Unicode white space, invalid UTF-8 and all —
// and counts the fields it does not store. Each of the 128 ASCII bytes is
// tried as a separator and inside a token, so a white-space table that
// differs from unicode.IsSpace in one entry (U+001C–U+001F, say, which
// are not space in Go) fails here.
func TestFieldsMatchesStringsFields(t *testing.T) {
	for _, line := range []string{
		"", " ", "a", " a ", "a b", "a  b\tc\nd\ve\ff\rg h",
		"res write 1 X 1 ok", "one two three four five six seven eight",
		// NBSP, NEL, em space and ideographic space split; zero-width space does not.
		"a\u00a0b", "a\u0085b", "a\u2003b\u3000c", "a\u200bb",
		"a\xffb \xc2", "\xc2\xa0", "\xe2\x80", "é è", "  leading", "trailing  ",
	} {
		checkFields(t, line)
	}
	for c := 0; c < utf8.RuneSelf; c++ {
		b := string(rune(c))
		for _, line := range []string{
			"a" + b + "b", b, b + b, b + "lead", "trail" + b,
			"res" + b + "write 1 X" + b + b + "1 ok", "to" + b + "ken" + b + "\u00a0x",
		} {
			checkFields(t, line)
		}
	}
}

func checkFields(t *testing.T, line string) {
	t.Helper()
	want := strings.Fields(line)
	var f [maxFields][]byte
	n := fields([]byte(line), &f)
	if n != len(want) {
		t.Fatalf("fields(%q) counts %d, strings.Fields %d: %q", line, n, len(want), want)
	}
	for i := 0; i < n && i < maxFields; i++ {
		if string(f[i]) != want[i] {
			t.Fatalf("fields(%q)[%d] = %q, strings.Fields %q", line, i, f[i], want[i])
		}
	}
	rest := []byte(line)
	for i := 0; ; i++ {
		var tok []byte
		tok, rest = nextField(rest)
		switch {
		case i == len(want) && len(tok) == 0:
			return
		case i == len(want):
			t.Fatalf("nextField walk of %q finds %q past strings.Fields' %d fields", line, tok, len(want))
		case string(tok) != want[i]:
			t.Fatalf("nextField walk of %q: field %d is %q, strings.Fields %q", line, i, tok, want[i])
		}
	}
}

// FuzzFields: the in-place tokenizer under AppendEvents against
// strings.Fields, which the parser used to call.
func FuzzFields(f *testing.F) {
	f.Add("res write 1 X 1 ok")
	f.Add("a\u00a0b\u0085c \xff\xc2")
	f.Add("one two three four five six seven")
	f.Add(" \t\v\f\r\n")
	f.Add("a\x1cb\x1dc\x1ed\x1f")
	f.Fuzz(func(t *testing.T, line string) {
		checkFields(t, line)
	})
}

// TestAppendEventsMatchesReference holds the one-pass parser against the
// parser it replaced (refAppendEvents: strings.Fields, then arity checks
// on the count) on every line of up to five fields drawn from the format's
// words and a few bad ones, under rotating separators, and on every event
// line with a field dropped or one or two extra fields: the same events,
// the same error messages byte for byte.
func TestAppendEventsMatchesReference(t *testing.T) {
	heads := []string{"inv", "res", "read", "write", "commit", "abort", "frob"}
	words := []string{"read", "write", "tryc", "trya", "1", "0", "-7", "X", "A", "C", "ok"}
	seps := []string{" ", "\t", "  ", "\u00a0", " \u3000", "\x1c"}
	var lines []string
	var build func(line string, depth int)
	build = func(line string, depth int) {
		lines = append(lines, line)
		if depth == 4 {
			return
		}
		for i, w := range words {
			build(line+seps[(depth+i)%len(seps)]+w, depth+1)
		}
	}
	for _, h := range heads {
		build(h, 0)
	}
	for _, e := range append(eventShapes(12, "obj", -40), eventShapes(3, "Y", 5)...) {
		f := strings.Fields(FormatEvent(e))
		for i := range f {
			lines = append(lines, strings.Join(append(append([]string{}, f[:i]...), f[i+1:]...), " "))
		}
		for _, extra := range []string{" A", " 1", " ok ok", " # c", "\u00a0x y"} {
			lines = append(lines, strings.Join(f, " ")+extra, strings.Join(f, "\t")+extra)
		}
	}
	names := Names{}
	dst := make([]history.Event, 0, 4)
	held := history.Event{Txn: 99}
	for _, line := range lines {
		want, wantErr := refAppendEvents([]history.Event{held}, line)
		got, err := AppendEvents(append(dst[:0], held), []byte(line), names)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("AppendEvents(%q) error %v, reference %v", line, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("AppendEvents(%q) = %v, reference %v", line, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AppendEvents(%q) event %d = %v, reference %v", line, i, got[i], want[i])
			}
		}
	}
	t.Logf("%d lines", len(lines))
}
