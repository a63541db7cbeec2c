package histio

import (
	"fmt"
	"strings"
	"testing"

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
// and counts the fields it does not store.
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
}

func checkFields(t *testing.T, line string) {
	t.Helper()
	want := strings.Fields(line)
	f, n := fields([]byte(line))
	if n != len(want) {
		t.Fatalf("fields(%q) counts %d, strings.Fields %d: %q", line, n, len(want), want)
	}
	for i := 0; i < n && i < maxFields; i++ {
		if string(f[i]) != want[i] {
			t.Fatalf("fields(%q)[%d] = %q, strings.Fields %q", line, i, f[i], want[i])
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
	f.Fuzz(func(t *testing.T, line string) {
		checkFields(t, line)
	})
}
