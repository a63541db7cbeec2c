package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/litmus"
)

var update = flag.Bool("update", false, "rewrite the goldens under internal/follow/testdata and testdata")

// goldenDir holds the follow cases shared with the certd transcript
// goldens (internal/certd/golden_test.go): NAME.in is a STREAM hello line
// followed by the input, NAME.ducheck the ducheck -follow transcript.
const goldenDir = "../../internal/follow/testdata"

// followArgs maps a case's STREAM hello to the ducheck flags carrying the
// same policies; ok is false for the certd-only keywords.
func followArgs(hello string) (args []string, ok bool) {
	fields := strings.Fields(hello)
	args = []string{"-follow", "-criteria", fields[1]}
	for _, f := range fields[2:] {
		switch {
		case f == "skipbad":
			args = append(args, "-skip-bad")
		case f == "strict":
			args = append(args, "-strict")
		case strings.HasPrefix(f, "retire="):
			args = append(args, "-retire", strings.TrimPrefix(f, "retire="))
		case strings.HasPrefix(f, "nodelimit="):
			args = append(args, "-node-limit", strings.TrimPrefix(f, "nodelimit="))
		default:
			return nil, false
		}
	}
	return args, true
}

// TestGoldenFollow pins ducheck -follow's stdout, stderr, exit code and
// error byte for byte. Every golden was captured from the two-loop
// implementation PR 15 replaced, except latched-retire and retired-id:
// those two record the PR 15 fixes (a latched criterion no longer stops
// retirement; one well-formedness answer per event), which change their
// retirement summary lines and nothing else — see DESIGN.md, "One follow
// session".
func TestGoldenFollow(t *testing.T) {
	for _, c := range goldenFollowCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got := followTranscript(c.args, c.input)
			golden := filepath.Join(goldenDir, c.name+".ducheck")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("ducheck %s diverges from %s:\n%s", strings.Join(c.args, " "), golden, firstDiff(got, string(want)))
			}
		})
	}
}

// TestGoldenFollowAfterReuse: a released follow's session streams are
// reused by the next follow in the process, and the reuse must not show.
// Every golden is replayed in one process, each right after a different
// long stream (tl2, 4 x 50 transactions on 128 objects, a seed per golden,
// du and opacity at retire 8, leaving a pooled stream and a spare stream
// full of other transactions and objects behind), and must still match
// byte for byte — latched-retire's retirements into the spare stream
// included.
func TestGoldenFollowAfterReuse(t *testing.T) {
	for i, c := range goldenFollowCases(t) {
		h, _, err := harness.RunInterleaved(harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 128, OpsPerTxn: 4, ReadFraction: 0.5, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		var before strings.Builder
		if err := histio.WriteEvents(&before, h.Events()); err != nil {
			t.Fatal(err)
		}
		if got := followTranscript([]string{"-follow", "-criteria", "du,opacity", "-retire", "8"}, before.String()); !strings.HasPrefix(got, "exit 0\n") {
			t.Fatalf("the stream before %s did not end clean:\n%.300s", c.name, got)
		}
		got := followTranscript(c.args, c.input)
		golden := filepath.Join(goldenDir, c.name+".ducheck")
		if want, err := os.ReadFile(golden); err != nil || got != string(want) {
			t.Errorf("ducheck %s after another stream diverges from %s (%v):\n%s", strings.Join(c.args, " "), golden, err, firstDiff(got, string(want)))
		}
	}
}

type followCase struct {
	name, hello, input string
	args               []string // the hello as ducheck flags
}

// goldenFollowCases are the follow goldens ducheck can run: a synthetic
// read-error case and every NAME.in under goldenDir whose hello carries
// only policies ducheck has flags for.
func goldenFollowCases(t *testing.T) []followCase {
	ins, err := filepath.Glob(filepath.Join(goldenDir, "*.in"))
	if err != nil || len(ins) == 0 {
		t.Fatalf("no golden cases under %s: %v", goldenDir, err)
	}
	all := []followCase{{
		// A line past bufio.Scanner's 64 KB token limit is a read error:
		// exit 2, no summary.
		name: "longline", hello: "STREAM du", input: "write 1 X 1\n" + strings.Repeat("x", 2<<20) + "\n",
	}}
	for _, in := range ins {
		src, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		hello, input, _ := strings.Cut(string(src), "\n")
		all = append(all, followCase{name: strings.TrimSuffix(filepath.Base(in), ".in"), hello: hello, input: input})
	}
	var cases []followCase
	for _, c := range all {
		var ok bool
		if c.args, ok = followArgs(c.hello); ok {
			cases = append(cases, c)
		}
	}
	return cases
}

// followTranscript runs ducheck with args on input and renders the exit
// code, the error, stdout and stderr as the goldens hold them.
func followTranscript(args []string, input string) string {
	var out, errOut strings.Builder
	code, err := runWith(args, strings.NewReader(input), &out, &errOut)
	return fmt.Sprintf("exit %d\nerror %v\n--- stdout\n%s--- stderr\n%s", code, err, out.String(), errOut.String())
}

// TestGoldenBatch pins the farm-backed batch modes byte for byte: the
// witness and -jobs 2 checks over the paper's litmus histories
// (testdata/litmus holds litmus.Cases in histio text; -update rewrites
// them from the registry) and the explorer on the pinned ple plan of
// internal/harness/testdata/explore_ple_litmus.golden.
func TestGoldenBatch(t *testing.T) {
	litmusDir := filepath.Join("testdata", "litmus")
	if *update {
		if err := os.MkdirAll(litmusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, lc := range litmus.Cases() {
			if err := os.WriteFile(filepath.Join(litmusDir, lc.Name+".hist"), []byte(histio.FormatString(lc.H)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(litmusDir, "*.hist"))
	if err != nil || len(files) != len(litmus.Cases()) {
		t.Fatalf("want %d litmus files under %s, got %d (%v)", len(litmus.Cases()), litmusDir, len(files), err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"witness", append([]string{"-witness"}, files...)},
		{"parallel", append([]string{"-jobs", "2"}, files...)},
		{"explore_ple", []string{"-explore", "-engine", "ple", filepath.Join("testdata", "litmus.plan")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code, err := runWith(c.args, nil, &out, &errOut)
			got := fmt.Sprintf("exit %d\nerror %v\n--- stdout\n%s--- stderr\n%s", code, err, out.String(), errOut.String())
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("ducheck %s diverges from %s:\n%s", strings.Join(c.args, " "), golden, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "(identical)"
}
