// Package histio reads and writes histories as text, so that the CLI
// tools (cmd/ducheck, cmd/histgen) and test fixtures — including the
// golden counterexamples pinned under internal/harness/testdata — can
// exchange them.
//
// The format transcribes the event notation of the paper's Section 2
// (Attiya, Hans, Kuznetsov and Ravi, ICDCS 2013): a history is the
// sequence of invocation and response events of t-operations read_k(X),
// write_k(X,v) and tryC_k, with A_k ("A") the abort response, C_k ("C")
// the commit response, and tryA_k ("trya") the explicit abort request.
// Parsing validates well-formedness through the same incremental core as
// history.FromEvents (via history.Stream in ParseEvents), so a file that
// parses is a history in the paper's sense — Definition 1's per-
// transaction sequential pattern included.
//
// The format is line-based; '#' starts a comment and blank lines are
// skipped. Each line is either an event:
//
//	inv read  <txn> <obj>
//	res read  <txn> <obj> <value>|A
//	inv write <txn> <obj> <value>
//	res write <txn> <obj> <value> ok|A
//	inv tryc  <txn>
//	res tryc  <txn> C|A
//	inv trya  <txn>
//	res trya  <txn> A
//
// or an operation shorthand that expands to an adjacent
// invocation/response pair:
//
//	read   <txn> <obj> <value>|A
//	write  <txn> <obj> <value> [A]
//	commit <txn> [A]
//	abort  <txn>
//
// Format always emits event lines (lossless); Parse accepts both forms.
package histio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"duopacity/internal/history"
)

// Format writes h to w, one event per line.
func Format(w io.Writer, h *history.History) error {
	return WriteEvents(w, h.Events())
}

// WriteEvents writes the events to w, one event line each — the encoder
// dual of ParseEvents. It does not validate well-formedness (the events
// need not form a history prefix), so it can serialize any event
// sequence: a live stream being forwarded over the wire (cmd/certd's
// stream protocol, ducheck -follow -connect), a synthetic load-test
// feed, or a whole history via Format. Round-tripping through
// ParseEvents yields the same events (pinned by TestEventRoundTrip and
// FuzzEventRoundTrip).
func WriteEvents(w io.Writer, evs []history.Event) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, e := range evs {
		line = append(AppendEvent(line[:0], e), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatEvent renders one event as its event line, without the trailing
// newline: the single-event form of WriteEvents, for consumers that
// frame lines themselves (the certd stream client sends one event line
// per network write).
func FormatEvent(e history.Event) string {
	var buf [64]byte
	return string(AppendEvent(buf[:0], e))
}

// FormatString renders h to a string.
func FormatString(h *history.History) string {
	var sb strings.Builder
	_ = Format(&sb, h) // strings.Builder never errors
	return sb.String()
}

// AppendEvent appends e's event line to b, without a newline: the one
// encoder under FormatEvent and WriteEvents. It allocates nothing beyond
// b's growth.
func AppendEvent(b []byte, e history.Event) []byte {
	inv := e.Kind == history.Inv
	switch {
	case inv && e.Op == history.OpRead:
		return appendLine(b, e, "inv read ", 1, "")
	case inv && e.Op == history.OpWrite:
		return appendLine(b, e, "inv write ", 2, "")
	case inv && e.Op == history.OpTryCommit:
		return appendLine(b, e, "inv tryc ", 0, "")
	case inv && e.Op == history.OpTryAbort:
		return appendLine(b, e, "inv trya ", 0, "")
	case e.Op == history.OpRead && e.Out == history.OutOK:
		return strconv.AppendInt(appendLine(b, e, "res read ", 1, " "), int64(e.Val), 10)
	case e.Op == history.OpRead:
		return appendLine(b, e, "res read ", 1, " A")
	case e.Op == history.OpWrite && e.Out == history.OutOK:
		return appendLine(b, e, "res write ", 2, " ok")
	case e.Op == history.OpWrite:
		return appendLine(b, e, "res write ", 2, " A")
	case e.Op == history.OpTryCommit && e.Out == history.OutCommit:
		return appendLine(b, e, "res tryc ", 0, " C")
	case e.Op == history.OpTryCommit:
		return appendLine(b, e, "res tryc ", 0, " A")
	default:
		return appendLine(b, e, "res trya ", 0, " A")
	}
}

// appendLine appends head, the transaction, the first operands of e (the
// object, then a write's argument) and tail.
func appendLine(b []byte, e history.Event, head string, operands int, tail string) []byte {
	b = append(b, head...)
	b = strconv.AppendInt(b, int64(e.Txn), 10)
	if operands >= 1 {
		b = append(b, ' ')
		b = append(b, e.Obj...)
	}
	if operands >= 2 {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.Arg), 10)
	}
	return append(b, tail...)
}

// ParseEvents parses one line of the text format into its events: an
// event line yields one event, a shorthand line yields the adjacent
// invocation/response pair, and a comment or blank line yields none. It
// is AppendEvents for a caller with one line in a string and no buffers to
// reuse.
func ParseEvents(line string) ([]history.Event, error) {
	return AppendEvents(nil, []byte(line), nil)
}

// Names interns object names: a consumer that parses line after line out
// of a buffer it reuses (a scanner's, a connection's) gets each name as a
// string that outlives the buffer, allocated the first time the name is
// seen. One Names (made with Names{}) serves one stream of lines, from one
// goroutine.
type Names map[string]history.Var

// maxNames bounds what one Names holds on to: a stream that keeps
// inventing names (a line the session then refuses costs the session
// nothing) gets a fresh string for each one past the bound.
const maxNames = 4096

func (n Names) intern(tok []byte) history.Var {
	if v, ok := n[string(tok)]; ok {
		return v
	}
	v := history.Var(tok)
	if n != nil && len(n) < maxNames {
		n[string(v)] = v
	}
	return v
}

// AppendEvents parses one line like ParseEvents and appends its events to
// dst: the entry for streaming consumers (package follow, Parse) that feed
// line after line and keep dst, the line buffer and names across calls —
// then a line costs no allocation. line is not retained; object names come
// out of names, or are fresh strings when names is nil. On error dst is
// returned as it came.
func AppendEvents(dst []history.Event, line []byte, names Names) ([]history.Event, error) {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	head, rest := nextField(line)
	switch string(head) {
	case "":
		return dst, nil
	case "inv", "res":
		// The event form is read token by token; nothing counts its fields.
		kind := history.Inv
		if head[0] == 'r' {
			kind = history.Res
		}
		e, err := parseEvent(kind, rest, names)
		if err != nil {
			return dst, err
		}
		return append(dst, e), nil
	}
	var f [maxFields][]byte
	n := fields(line, &f)
	switch string(head) {
	case "read":
		// read <txn> <obj> <value>|A
		if n != 4 {
			return dst, fmt.Errorf("read wants 3 arguments, got %d", n-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return dst, err
		}
		res := history.Event{Kind: history.Res, Op: history.OpRead, Txn: k, Out: history.OutAbort}
		if string(f[3]) != "A" {
			if res.Val, err = parseValue(f[3]); err != nil {
				return dst, err
			}
			res.Out = history.OutOK
		}
		res.Obj = names.intern(f[2])
		return append(dst, history.Event{Kind: history.Inv, Op: history.OpRead, Txn: k, Obj: res.Obj}, res), nil
	case "write":
		// write <txn> <obj> <value> [A]
		if n != 4 && n != 5 {
			return dst, fmt.Errorf("write wants 3 or 4 arguments, got %d", n-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return dst, err
		}
		v, err := parseValue(f[3])
		if err != nil {
			return dst, err
		}
		out := history.OutOK
		if n == 5 {
			if string(f[4]) != "A" {
				return dst, fmt.Errorf("write outcome must be A, got %q", string(f[4]))
			}
			out = history.OutAbort
		}
		obj := names.intern(f[2])
		return append(dst,
			history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: k, Obj: obj, Arg: v},
			history.Event{Kind: history.Res, Op: history.OpWrite, Txn: k, Obj: obj, Arg: v, Out: out}), nil
	case "commit":
		// commit <txn> [A]
		if n != 2 && n != 3 {
			return dst, fmt.Errorf("commit wants 1 or 2 arguments, got %d", n-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return dst, err
		}
		out := history.OutCommit
		if n == 3 {
			if string(f[2]) != "A" {
				return dst, fmt.Errorf("commit outcome must be A, got %q", string(f[2]))
			}
			out = history.OutAbort
		}
		return append(dst,
			history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: k},
			history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: k, Out: out}), nil
	case "abort":
		if n != 2 {
			return dst, fmt.Errorf("abort wants 1 argument, got %d", n-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return dst, err
		}
		return append(dst,
			history.Event{Kind: history.Inv, Op: history.OpTryAbort, Txn: k},
			history.Event{Kind: history.Res, Op: history.OpTryAbort, Txn: k, Out: history.OutAbort}), nil
	default:
		return dst, fmt.Errorf("unknown directive %q", string(head))
	}
}

// maxFields is the longest shorthand line ("write <txn> <obj> <value> A");
// fields counts what a longer line holds past it without storing it, for
// the arity messages.
const maxFields = 5

// asciiSpace marks the ASCII bytes unicode.IsSpace calls space. Past
// U+007F only a decoded rune can say; U+001C–U+001F are not space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField splits off the first field of b exactly as strings.Fields
// would find it, and what follows the field; tok is empty when b holds no
// further field. An ASCII byte costs one table lookup; a byte past ASCII
// hands the split to runeField.
func nextField(b []byte) (tok, rest []byte) {
	start := 0
	for ; start < len(b); start++ {
		if c := b[start]; c >= utf8.RuneSelf {
			return runeField(b)
		} else if !asciiSpace[c] {
			break
		}
	}
	for i, c := range b[start:] {
		if c >= utf8.RuneSelf {
			return runeField(b)
		} else if asciiSpace[c] {
			return b[start : start+i], b[start+i:]
		}
	}
	return b[start:], nil
}

// runeField is nextField once a byte past ASCII turns up: unicode.IsSpace
// on every rune, where invalid UTF-8 decodes to U+FFFD, which is not space.
func runeField(b []byte) (tok, rest []byte) {
	start := bytes.IndexFunc(b, notSpace)
	if start < 0 {
		return nil, nil
	}
	end := bytes.IndexFunc(b[start:], unicode.IsSpace)
	if end < 0 {
		return b[start:], nil
	}
	return b[start : start+end], b[start+end:]
}

func notSpace(r rune) bool { return !unicode.IsSpace(r) }

// fields splits line around runs of white space exactly as strings.Fields
// does, in place: it stores the first maxFields fields in f and returns
// the count of all of them.
func fields(line []byte, f *[maxFields][]byte) (n int) {
	for tok, rest := nextField(line); len(tok) > 0; tok, rest = nextField(rest) {
		if n < maxFields {
			f[n] = tok
		}
		n++
	}
	return n
}

// Parse reads a history from r.
func Parse(r io.Reader) (*history.History, error) {
	var evs []history.Event
	names := Names{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var err error
		if evs, err = AppendEvents(evs, sc.Bytes(), names); err != nil {
			return nil, fmt.Errorf("histio: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("histio: %w", err)
	}
	h, err := history.FromEvents(evs)
	if err != nil {
		return nil, fmt.Errorf("histio: %w", err)
	}
	return h, nil
}

// ParseString parses a history from a string.
func ParseString(s string) (*history.History, error) {
	return Parse(strings.NewReader(s))
}

// eventTokens reads the fields of an event line after its kind, one at a
// time: next returns an empty token past the last field.
type eventTokens struct{ rest []byte }

func (t *eventTokens) next() []byte {
	tok, rest := nextField(t.rest)
	t.rest = rest
	return tok
}

// more reports whether a field is left.
func (t *eventTokens) more() bool { return len(t.next()) > 0 }

// parseEvent parses the rest of an event line of the given kind in one
// pass: the operation, the transaction, then each operand as the operation
// asks for it, and no field after the last.
func parseEvent(kind history.EventKind, rest []byte, names Names) (history.Event, error) {
	t := eventTokens{rest}
	op, txn := t.next(), t.next()
	if len(txn) == 0 {
		return history.Event{}, fmt.Errorf("event line too short")
	}
	k, err := parseTxn(txn)
	if err != nil {
		return history.Event{}, err
	}
	e := history.Event{Kind: kind, Txn: k}
	switch string(op) {
	case "read":
		e.Op = history.OpRead
		obj := t.next()
		if len(obj) == 0 {
			return e, fmt.Errorf("read event wants an object")
		}
		if kind == history.Inv {
			if t.more() {
				return e, fmt.Errorf("inv read wants 2 arguments")
			}
			e.Obj = names.intern(obj)
			return e, nil
		}
		val := t.next()
		if len(val) == 0 || t.more() {
			return e, fmt.Errorf("res read wants 3 arguments")
		}
		if string(val) == "A" {
			e.Out = history.OutAbort
		} else {
			v, err := parseValue(val)
			if err != nil {
				return e, err
			}
			e.Val, e.Out = v, history.OutOK
		}
		e.Obj = names.intern(obj)
		return e, nil
	case "write":
		e.Op = history.OpWrite
		obj, arg := t.next(), t.next()
		if len(arg) == 0 {
			return e, fmt.Errorf("write event wants object and value")
		}
		v, err := parseValue(arg)
		if err != nil {
			return e, err
		}
		e.Arg = v
		if kind == history.Inv {
			if t.more() {
				return e, fmt.Errorf("inv write wants 3 arguments")
			}
			e.Obj = names.intern(obj)
			return e, nil
		}
		out := t.next()
		if len(out) == 0 || t.more() {
			return e, fmt.Errorf("res write wants 4 arguments")
		}
		switch string(out) {
		case "ok":
			e.Out = history.OutOK
		case "A":
			e.Out = history.OutAbort
		default:
			return e, fmt.Errorf("write outcome must be ok or A, got %q", string(out))
		}
		e.Obj = names.intern(obj)
		return e, nil
	case "tryc":
		e.Op = history.OpTryCommit
		if kind == history.Inv {
			if t.more() {
				return e, fmt.Errorf("inv tryc wants 1 argument")
			}
			return e, nil
		}
		out := t.next()
		if len(out) == 0 || t.more() {
			return e, fmt.Errorf("res tryc wants 2 arguments")
		}
		switch string(out) {
		case "C":
			e.Out = history.OutCommit
		case "A":
			e.Out = history.OutAbort
		default:
			return e, fmt.Errorf("tryc outcome must be C or A, got %q", string(out))
		}
		return e, nil
	case "trya":
		e.Op = history.OpTryAbort
		if kind == history.Inv {
			if t.more() {
				return e, fmt.Errorf("inv trya wants 1 argument")
			}
			return e, nil
		}
		if out := t.next(); string(out) != "A" || t.more() {
			return e, fmt.Errorf("res trya wants outcome A")
		}
		e.Out = history.OutAbort
		return e, nil
	default:
		return e, fmt.Errorf("unknown operation %q", string(op))
	}
}

func parseTxn(s []byte) (history.TxnID, error) {
	if n, ok := decimal(s); ok && n > 0 {
		return history.TxnID(n), nil
	}
	n, err := strconv.Atoi(string(s))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid transaction id %q", string(s))
	}
	return history.TxnID(n), nil
}

func parseValue(s []byte) (history.Value, error) {
	if n, ok := decimal(s); ok {
		return history.Value(n), nil
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value %q", string(s))
	}
	return history.Value(n), nil
}

// decimal reads s as the format writes a number — an optional '-' and 1
// to 18 decimal digits, which cannot overflow — without strconv; ok is
// false for any other form, which strconv then decides.
func decimal(s []byte) (n int64, ok bool) {
	digits := s
	if len(s) > 0 && s[0] == '-' {
		digits = s[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	for _, c := range digits {
		if c-'0' > 9 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(s) {
		n = -n
	}
	return n, true
}
