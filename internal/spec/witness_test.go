package spec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

var updateDigest = flag.Bool("update", false, "rewrite the digest goldens under testdata")

// TestSessionWitnessDigestGolden pins every witness a five-criteria session
// hands out to testdata/session_witness_digest.golden: the differential
// corpus and eight streams of each follow workload, at retire 0 and 32,
// one line each — stream, window, a sha256 over every response's verdicts
// and the session's Stats and Counters. A verdict enters the hash as its
// criterion, status and reason and, when it accepts, its witness
// unrendered: the dense transaction indexes in serialization order with
// their commit decisions, which with the stream fix the rendering. On the
// differential corpus (short streams) the hash also takes every
// Verdict.String(), so the rendering itself stays pinned byte for byte. A
// change to when or how a witness is rendered must leave the file
// untouched (-update rewrites it, only for an intended change of results).
// Under -race the gl-five streams at retire 0 are left out.
func TestSessionWitnessDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("16 follow-workload streams")
	}
	type stream struct {
		name   string
		evs    []history.Event
		render bool
	}
	var streams []stream
	for _, hh := range differentialCorpus() {
		streams = append(streams, stream{hh.name, hh.h.Events(), true})
	}
	for _, in := range followInputs {
		for i := 0; i < 8; i++ {
			streams = append(streams, stream{fmt.Sprintf("%s-%d", in.name, i), recorded(t, in.w, corpusSeed(i)), false})
		}
	}
	var lines []string
	var buf []byte
	for _, st := range streams {
		for _, window := range []int{0, 32} {
			if raceEnabled && window == 0 && strings.HasPrefix(st.name, "gl-five") {
				// Five deciders over a live window of up to 2 000
				// transactions: most of the test, and over a minute under
				// -race. The plain run checks these lines.
				lines = append(lines, "")
				continue
			}
			var opts []spec.Option
			if window > 0 {
				opts = append(opts, spec.WithRetirement(window))
			}
			s, err := spec.NewSession(spec.MonitorableCriteria(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i, e := range st.evs {
				vs, err := s.Append(e)
				if err != nil {
					t.Fatalf("%s event %d: %v", st.name, i, err)
				}
				if e.Kind != history.Res {
					continue
				}
				for _, v := range vs {
					buf = appendVerdictDigest(buf[:0], v)
					if st.render {
						buf = fmt.Appendf(buf, "%s\n", v)
					}
					h.Write(buf)
				}
			}
			searches, fastHits := s.Stats()
			lines = append(lines, fmt.Sprintf("%s %d %x %d/%d %+v", st.name, window, h.Sum(nil)[:12], searches, fastHits, s.Counters()))
		}
	}
	compareDigest(t, "session_witness_digest.golden", lines)
}

// appendVerdictDigest appends what the witness digest hashes of v: its
// criterion, status and reason, then per witness position the dense
// transaction index shifted left by one with the commit decision in the
// low bit, as uvarints.
func appendVerdictDigest(buf []byte, v spec.Verdict) []byte {
	order, commit := spec.WitnessOrder(v)
	buf = fmt.Appendf(buf, "%v %s %q %d:", v.Criterion, v.Status(), v.Reason, len(order))
	for p, gi := range order {
		c := uint64(0)
		if commit[p] {
			c = 1
		}
		buf = binary.AppendUvarint(buf, uint64(gi)<<1|c)
	}
	return append(buf, '\n')
}

// TestWitnessAfterAppendPanics pins the ownership rule of a verdict's
// witness. A session or monitor verdict renders its witness (Witness and
// String) until the next Append or Rewind and panics after it, naming the
// rule; a batch verdict's Witness stays valid and hands out an equal Seq
// the caller owns at every call.
func TestWitnessAfterAppendPanics(t *testing.T) {
	evs := history.NewBuilder().
		Write(1, "X", 1).Commit(1).
		Read(2, "X", 1).Commit(2).
		Read(3, "X", 1).History().Events()
	stale := func(name string, v spec.Verdict) {
		t.Helper()
		for what, render := range map[string]func(){
			"Witness": func() { v.Witness() },
			"String":  func() { _ = v.String() },
		} {
			func() {
				defer func() {
					r := recover()
					if msg, _ := r.(string); !strings.Contains(msg, "next Append or Rewind") {
						t.Errorf("%s: %s of a stale verdict recovered %v, want a panic naming the rule", name, what, r)
					}
				}()
				render()
			}()
		}
	}
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.NewSession(spec.MonitorableCriteria())
	if err != nil {
		t.Fatal(err)
	}
	var mv spec.Verdict
	var svs []spec.Verdict
	for _, e := range evs[:8] {
		if mv, err = m.Append(e); err != nil {
			t.Fatal(err)
		}
		if svs, err = s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sv := svs[0]
	if got := mv.Witness().String(); got != "T1+ T2+" || sv.Witness().String() != got || mv.String() != "du-opacity: OK [T1+ T2+]" {
		t.Fatalf("fresh verdicts render %q, %q, %q; want T1+ T2+", got, sv.Witness(), mv)
	}
	if _, err := m.Append(evs[8]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(evs[8]); err != nil {
		t.Fatal(err)
	}
	stale("monitor verdict after Append", mv)
	stale("session verdict after Append", sv)

	mv, sv = m.Verdict(), s.Verdicts()[0]
	if err := m.Rewind(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Rewind(4); err != nil {
		t.Fatal(err)
	}
	stale("monitor verdict after Rewind", mv)
	stale("session verdict after Rewind", sv)
	if got := m.Verdict().Witness().String(); got != "T1+" {
		t.Fatalf("rewound monitor renders %q, want T1+", got)
	}

	h := history.NewBuilder().Write(1, "X", 1).Commit(1).Read(2, "X", 1).History()
	v := spec.Check(h, spec.DUOpacity)
	a := v.Witness()
	a.Txns[0].Ops[0].Arg = 99 // the caller's to change
	if b := v.Witness(); a == b || b.Txns[0].Ops[0].Arg != 1 || b.String() != "T1+ T2-" {
		t.Fatalf("second Witness() = %p %v [%s], first %p; want a fresh, unchanged Seq", b, b.Txns, b, a)
	}
	if !reflect.DeepEqual(v.Witness(), v.Witness()) {
		t.Fatal("two Witness() calls on a batch verdict differ")
	}
	if err := spec.VerifySerialization(h, v.Witness()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRelease pins what Release hands back and what stays valid.
// A session's History snapshots — taken before its retirements rebuilt
// into the spare stream, and before Release — stay equal while later
// retirements and later sessions reuse those streams. A verdict's Witness
// and String, handed out before Release or read through Verdicts after
// it, panic through the generation check instead of rendering another
// session's transactions; statuses and counters stay readable. A second
// Release does nothing: two sessions started after it never share a
// stream.
func TestSessionRelease(t *testing.T) {
	h, _, err := harness.RunInterleaved(harness.Workload{Engine: "gl", Goroutines: 3, TxnsPerGoroutine: 12, Objects: 3, OpsPerTxn: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	other := history.NewBuilder().Write(7, "Y", 3).Commit(7).Read(8, "Y", 3).Read(8, "Z", 0).Commit(8).History()
	feed := func(h *history.History, opts ...spec.Option) (*spec.Session, []*history.History, []string) {
		s, err := spec.NewSession(spec.MonitorableCriteria(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var snaps []*history.History
		var texts []string
		for _, e := range h.Events() {
			if _, err := s.Append(e); err != nil {
				t.Fatal(err)
			}
			snap := spec.SessionHistory(s)
			snaps, texts = append(snaps, snap), append(texts, snap.String())
		}
		return s, snaps, texts
	}
	s, snaps, texts := feed(h, spec.WithRetirement(2))
	if _, spare := spec.SessionStreams(s); s.Retired() == 0 || spare == nil {
		t.Fatalf("%d transactions retired, spare stream %p: the spare stream is not exercised", s.Retired(), spare)
	}
	searches, fastHits := s.Stats()
	counters := s.Counters()
	v := s.Verdicts()[0]
	if !v.OK || v.Witness() == nil {
		t.Fatalf("verdict before Release %+v, want an accepting one", v)
	}
	s.Release()
	s.Release()
	if live, spare := spec.SessionStreams(s); live != nil || spare != nil {
		t.Fatalf("released session still holds streams %p, %p", live, spare)
	}
	for name, v := range map[string]spec.Verdict{"handed out before Release": v, "read after Release": s.Verdicts()[0]} {
		for what, render := range map[string]func(){
			"Witness": func() { v.Witness() },
			"String":  func() { _ = v.String() },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "Release") {
						t.Errorf("%s of a verdict %s: recovered %q, want a panic naming Release", what, name, msg)
					}
				}()
				render()
			}()
		}
		if v.Status() != "ok" {
			t.Errorf("verdict %s: status %q, want ok", name, v.Status())
		}
	}
	if s2, f2 := s.Stats(); s2 != searches || f2 != fastHits || s.Counters() != counters {
		t.Errorf("Release moved the counters: %d/%d %+v, was %d/%d %+v", s2, f2, s.Counters(), searches, fastHits, counters)
	}
	x, _, _ := feed(other)
	y, _, _ := feed(other, spec.WithRetirement(1))
	xl, _ := spec.SessionStreams(x)
	yl, ys := spec.SessionStreams(y)
	if xl == yl || xl == ys {
		t.Fatal("two sessions share a stream: a second Release handed it back again")
	}
	x.Release()
	y.Release()
	for i, snap := range snaps {
		if got := snap.String(); got != texts[i] {
			t.Fatalf("snapshot after event %d changed once its stream was reused:\n%s\nwas\n%s", i, got, texts[i])
		}
	}
}

// parentSessionAppendBytes is what a du-opacity session at retire 32
// allocated per tl2-du follow stream (followInputs[0], corpus streams 0-7)
// while every response still rendered its witness into a Seq:
// BenchmarkSessionAppend/tl2-du, three runs, 2.45 MB each (Intel Xeon,
// go1.24).
const parentSessionAppendBytes = 2_450_000

// TestSessionAppendBytes gates what an unrendered witness saves on the
// follow-concurrent corpus: the bytes a du-opacity session at retire 32
// allocates per tl2-du stream, recording excluded, must be at most half of
// what they were while each response built its witness's Seq.
func TestSessionAppendBytes(t *testing.T) {
	in := followInputs[0]
	var streams [][]history.Event
	for i := 0; i < 8; i++ {
		streams = append(streams, recorded(t, in.w, corpusSeed(i)))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for _, evs := range streams {
		s, err := spec.NewSession(in.criteria, spec.WithRetirement(32))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if _, err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&ms)
	perStream := float64(ms.TotalAlloc-before) / float64(len(streams))
	t.Logf("%s, retire 32: %.0f bytes per stream, %.2fx the %d of witnesses rendered at every response",
		in.name, perStream, perStream/parentSessionAppendBytes, parentSessionAppendBytes)
	if perStream > parentSessionAppendBytes/2 {
		t.Errorf("%.0f bytes per stream; want at most half of %d", perStream, parentSessionAppendBytes)
	}
}

// compareDigest checks digest lines against testdata/name one by one,
// passing over the lines left empty (not computed), or rewrites the file
// under -update.
func compareDigest(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateDigest {
		if raceEnabled {
			t.Fatal("-update needs every line: run it without -race")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != "" && got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d diverged from %s:\ngot:  %s\nwant: %s", i+1, name, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d lines diverged in all", bad)
	}
}
