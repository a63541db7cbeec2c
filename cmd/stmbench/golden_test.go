package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the transcript goldens under testdata")

// faultCounters are the fault summary fields that depend on how real
// goroutines interleave: which transactions a spurious abort strikes sets
// a history's length, and with it the junk count and whether the
// truncation draw cuts it short. gl kills nothing and its serial
// histories are accepted by every criterion, so the rest stays pinned.
var faultCounters = regexp.MustCompile(`\b(junk|truncated)=[0-9/]+`)

// TestGoldenTranscripts pins stmbench's farm-backed subcommands byte for
// byte: the report every -jobs setting must reproduce. Two transcripts
// are cut to their deterministic part — -certify drops the throughput
// table (wall-clock rates) and keeps the certification section, the
// faulted soak masks its interleaving-dependent counters.
func TestGoldenTranscripts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		keep func(string) string
	}{
		{"certify", []string{"-engines", "ple,tl2", "-certify", "-episodes", "6", "-interleaved", "-jobs", "2"},
			func(s string) string {
				if i := strings.Index(s, "== certification"); i >= 0 {
					return s[i:]
				}
				return s
			}},
		{"soak", []string{"soak", "-engines", "gl,ple", "-rounds", "1", "-seed", "11", "-jobs", "2"}, nil},
		{"explore", []string{"explore", "-engines", "tl2,ple", "-plans", "2"}, nil},
		{"chaos", []string{"soak", "-faults", "-engines", "gl", "-rounds", "2", "-seed", "45", "-jobs", "2"},
			func(s string) string { return faultCounters.ReplaceAllString(s, "$1=#") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := run(c.args, &out)
			stdout := out.String()
			if c.keep != nil {
				stdout = c.keep(stdout)
			}
			got := fmt.Sprintf("error %v\n--- stdout\n%s", err, stdout)
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
				t.Errorf("stmbench %s diverges from %s:\n%s", strings.Join(c.args, " "), golden, firstDiff(got, string(want)))
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
