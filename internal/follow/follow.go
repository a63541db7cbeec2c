// Package follow is the one follow core under ducheck -follow (events on
// stdin) and certd's STREAM protocol (events on a connection): one
// spec.Session fed line by line, with everything about it that is not
// transport — the options and their wire form (the STREAM hello), the
// bad-input policies, the echo, the final summary, the DONE line and its
// exit status — and the rule for when output leaves (Out, OnIdle): when
// the input goes idle. The front ends keep the routing of bad-input notes
// and what a network adds (admission, metrics).
package follow

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// Options configure one follow: exactly what a STREAM hello carries.
type Options struct {
	Criteria  []spec.Criterion // in echo-column order
	Retire    int              // the session's retirement window; 0 keeps everything
	NodeLimit int              // bound on each search; 0 is unlimited
	// SkipBad and Strict select the bad-input policy; with neither, a bad
	// line is noted and skipped. They are mutually exclusive.
	SkipBad, Strict bool
	Quiet           bool // no per-event echo
}

// helloFields are the hello's optional fields in Hello's order: a counter
// travels as "key=N" when positive, a flag as its bare keyword when set.
func (o *Options) helloFields() []helloField {
	return []helloField{
		{key: "retire=", n: &o.Retire}, {key: "nodelimit=", n: &o.NodeLimit},
		{key: "skipbad", on: &o.SkipBad}, {key: "strict", on: &o.Strict},
		{key: "quiet", on: &o.Quiet},
	}
}

type helloField struct {
	key string
	n   *int
	on  *bool
}

// Hello renders the options as a STREAM hello line (without newline).
func (o Options) Hello() string {
	names := make([]string, len(o.Criteria))
	for i, c := range o.Criteria {
		names[i], _ = spec.CriterionAlias(c)
	}
	h := "STREAM " + strings.Join(names, ",")
	for _, f := range o.helloFields() {
		switch {
		case f.n != nil && *f.n > 0:
			h += " " + f.key + strconv.Itoa(*f.n)
		case f.on != nil && *f.on:
			h += " " + f.key
		}
	}
	return h
}

// ParseHello is the inverse of Hello. Criteria names are ducheck's
// -criteria names (spec.ParseCriterion); whether they are monitorable is
// New's to decide, so a hello asking for a batch-only baseline fails there,
// with the session's own explanation.
func ParseHello(line string) (Options, error) {
	var o Options
	words := strings.Fields(line)
	if len(words) < 2 || words[0] != "STREAM" {
		return o, fmt.Errorf("want: STREAM <criteria> [retire=N] [nodelimit=N] [skipbad|strict] [quiet]")
	}
	for _, name := range strings.Split(words[1], ",") {
		c, ok := spec.ParseCriterion(name)
		if !ok {
			return o, fmt.Errorf("unknown criterion %q", name)
		}
		o.Criteria = append(o.Criteria, c)
	}
next:
	for _, w := range words[2:] {
		for _, f := range o.helloFields() {
			switch {
			case f.on != nil && w == f.key:
				*f.on = true
				continue next
			case f.n != nil && strings.HasPrefix(w, f.key):
				n, err := strconv.Atoi(w[len(f.key):])
				if err != nil || n < 0 {
					return o, fmt.Errorf("bad %s value %q", strings.TrimSuffix(f.key, "="), w)
				}
				*f.n = n
				continue next
			}
		}
		return o, fmt.Errorf("unknown option %q", w)
	}
	if o.SkipBad && o.Strict {
		return o, fmt.Errorf("skipbad and strict are mutually exclusive")
	}
	return o, nil
}

// Done is the outcome of a completed follow, and the DONE line that ends
// a STREAM conversation.
type Done struct {
	Events     int // events the session accepted
	Bad        int // input lines refused: unparsable, or making the history ill-formed
	Violations int // criteria whose final verdict is a violation (undecided is not one)
}

// doneFormat is the DONE line. Its dropped field is always 0, since every
// line a front end reads is fed to the follow; it stays so that the line
// reads the same to every client.
const doneFormat = "DONE events=%d bad=%d dropped=0 violations=%d"

// String renders the DONE line (without newline).
func (d Done) String() string {
	return fmt.Sprintf(doneFormat, d.Events, d.Bad, d.Violations)
}

// ParseDone is the inverse of String; ok is false for any other line.
func ParseDone(line string) (d Done, ok bool) {
	_, err := fmt.Sscanf(line, doneFormat, &d.Events, &d.Bad, &d.Violations)
	return d, err == nil && line == d.String()
}

// Exit is the process exit status: 1 when any criterion was violated.
func (d Done) Exit() int { return min(d.Violations, 1) }

// BadLine is one refused input line; Error renders "line N: cause".
type BadLine struct {
	No   int
	Text string
	Err  error
}

func (b *BadLine) Error() string { return fmt.Sprintf("line %d: %v", b.No, b.Err) }

// maxBadDetail caps the skip-bad ledger; bad lines past it are only counted.
const maxBadDetail = 10

// flushAt is how much output may wait for the input to go idle before it
// is written anyway.
const flushAt = 32 * 1024

// Out buffers what a follow writes — echo lines, notes, the summary — and
// owns the rule for when it leaves: when the input has nothing more ready
// (Idle), so a verdict is never held back for company, or when flushAt
// bytes are waiting (Full), so a producer that never pauses is still
// answered. Idleness is a fact about the input, not a time: there is no
// interval to tune. A front end learns of it from OnIdle, over the input
// it reads.
type Out struct {
	*bufio.Writer
	IdleFlushes, FullFlushes int // flushes that had something to write, by cause
}

// NewOut buffers w. The buffer is larger than flushAt, so that bufio never
// flushes on its own ahead of Full and the caller sees every write error.
func NewOut(w io.Writer) *Out {
	return &Out{Writer: bufio.NewWriterSize(w, 2*flushAt)}
}

// Idle flushes what is buffered, if anything; the error is the write's.
func (o *Out) Idle() error {
	if o.Buffered() == 0 {
		return nil
	}
	o.IdleFlushes++
	return o.Flush()
}

// Full flushes once more than flushAt bytes are buffered; a front end
// whose peer may be gone calls it after every line and stops on an error.
func (o *Out) Full() error {
	if o.Buffered() <= flushAt {
		return nil
	}
	o.FullFlushes++
	return o.Flush()
}

// OnIdle returns a reader of r that calls idle before every Read of r. A
// line splitter (bufio.Scanner) reads only when what it holds contains no
// further line, so idle runs exactly when the input has gone idle, and at
// most once per read — however many lines a read carried. An error from
// idle is returned as the Read's.
func OnIdle(r io.Reader, idle func() error) io.Reader {
	return &idleReader{r: r, idle: idle}
}

type idleReader struct {
	r    io.Reader
	idle func() error
}

func (ir *idleReader) Read(p []byte) (int, error) {
	if err := ir.idle(); err != nil {
		return 0, err
	}
	return ir.r.Read(p)
}

// Follow is one follow in progress.
type Follow struct {
	// Append is the session's Append; a front end may interpose (certd
	// adds its append-latency metrics and fault-injection delay).
	Append func(history.Event) ([]spec.Verdict, error)

	opts Options
	sess *spec.Session
	out  *Out

	// Per-line scratch, reused: a warm Line allocates what the session's
	// stream allocates and nothing else.
	evs   []history.Event
	names histio.Names
	line  []byte   // the echo line
	cols  [][]byte // per criterion, the echo's "  <criterion>:"
	allOK []byte   // every column with status ok: a response's usual suffix

	events, bad int
	ledger      []BadLine
}

// New starts a follow writing its echo lines and final summary to out.
// Write errors on out are ignored, as for any line-printing command; a
// network front end notices a vanished client when it flushes.
func New(o Options, out *Out) (*Follow, error) {
	sess, err := spec.NewSession(o.Criteria, spec.WithNodeLimit(o.NodeLimit), spec.WithRetirement(o.Retire))
	if err != nil {
		return nil, err
	}
	f := &Follow{Append: sess.Append, opts: o, sess: sess, out: out, names: histio.Names{}}
	for _, c := range o.Criteria {
		f.cols = append(f.cols, []byte("  "+c.String()+":"))
		f.allOK = append(append(f.allOK, f.cols[len(f.cols)-1]...), spec.Verdict{OK: true}.Status()...)
	}
	return f, nil
}

// Stats is the session's: full searches and fast-path hits over all
// criteria; Counters what its flips and retirement probes touched.
func (f *Follow) Stats() (searches, fastHits int) { return f.sess.Stats() }
func (f *Follow) Counters() spec.Counters         { return f.sess.Counters() }

// Line feeds input line number no: every event it parses to is appended
// to the session and echoed. A line that does not parse, or whose event
// the session refuses as ill-formed (side-effect-free for the session; the
// rest of the line goes with it), is bad: counted, entered in the ledger
// under SkipBad, and returned under every policy for the front end to
// route — under Strict it must stop feeding and fail the follow. text is
// not retained.
func (f *Follow) Line(no int, text []byte) *BadLine {
	var err error
	f.evs, err = histio.AppendEvents(f.evs[:0], text, f.names)
	for i := 0; err == nil && i < len(f.evs); i++ {
		var vs []spec.Verdict
		if vs, err = f.Append(f.evs[i]); err == nil {
			f.echo(f.evs[i], vs)
			f.events++
		}
	}
	if err == nil {
		return nil
	}
	f.bad++
	b := BadLine{No: no, Text: string(text), Err: err}
	if f.opts.SkipBad && len(f.ledger) < maxBadDetail {
		f.ledger = append(f.ledger, b)
	}
	return &b
}

// echoPad pads the event's rendering to its column, 28 runes wide.
const echoPad = "                            "

// echo prints one accepted event.
func (f *Follow) echo(e history.Event, vs []spec.Verdict) {
	if f.opts.Quiet {
		return
	}
	f.line = f.appendEcho(f.line[:0], f.events, e, vs)
	_, _ = f.out.Write(f.line)
}

// appendEcho appends the echo line of event number i: its index and
// rendering, and after a response one status column per criterion (vs is
// in Options.Criteria order). The bytes are those of "%4d  %-28v" on the
// index and the event, then "  <criterion>:<status>" per column.
func (f *Follow) appendEcho(b []byte, i int, e history.Event, vs []spec.Verdict) []byte {
	switch {
	case i < 10:
		b = append(b, "   "...)
	case i < 100:
		b = append(b, "  "...)
	case i < 1000:
		b = append(b, ' ')
	}
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, "  "...)
	start := len(b)
	b = e.AppendText(b)
	if n := utf8.RuneCount(b[start:]); n < len(echoPad) {
		b = append(b, echoPad[n:]...)
	}
	if e.Kind != history.Res {
		return append(b, '\n')
	}
	if allOK(vs) {
		return append(append(b, f.allOK...), '\n')
	}
	for c, v := range vs {
		b = append(b, f.cols[c]...)
		b = append(b, v.Status()...)
	}
	return append(b, '\n')
}

// allOK reports whether every verdict's status is ok.
func allOK(vs []spec.Verdict) bool {
	for _, v := range vs {
		if !v.OK || v.Undecided {
			return false
		}
	}
	return true
}

// Finish prints the skip-bad quarantine report to report (the total under
// "<title> N bad input line(s):", then the ledger) and the final block to
// out (the skip-bad accounting line, then per criterion its verdict and,
// with retirement on, the retirement summary), releases the session (see
// Release) and returns the outcome.
func (f *Follow) Finish(report io.Writer, title string) Done {
	if f.opts.SkipBad {
		if f.bad > 0 {
			fmt.Fprintf(report, "%s %d bad input line(s):\n", title, f.bad)
			for _, b := range f.ledger {
				fmt.Fprintf(report, "  line %d: %v: %q\n", b.No, b.Err, b.Text)
			}
			if f.bad > len(f.ledger) {
				fmt.Fprintf(report, "  ... and %d more\n", f.bad-len(f.ledger))
			}
		}
		fmt.Fprintf(f.out, "follow: events=%d bad=%d\n", f.events, f.bad)
	}
	d := Done{Events: f.events, Bad: f.bad}
	for _, v := range f.sess.Verdicts() {
		fmt.Fprintln(f.out, v)
		if f.opts.Retire > 0 {
			fmt.Fprintf(f.out, "%v: %d events, %d transactions retired, %d live\n",
				v.Criterion, f.events, f.sess.Retired(), f.sess.LiveTxns())
		}
		if !v.OK && !v.Undecided {
			d.Violations++
		}
	}
	f.Release()
	return d
}

// Release hands the session's stream storage back for a later follow to
// reuse (spec.Session.Release) and ends the follow: no further Line or
// Finish. Stats and Counters stay readable. Finish releases; a front end
// that stops early releases itself, and a second Release does nothing.
func (f *Follow) Release() { f.sess.Release() }
