package certd

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the STREAM goldens under internal/follow/testdata")

// goldenDir holds the follow cases shared with ducheck's goldens
// (cmd/ducheck/golden_test.go): NAME.in is a STREAM hello line followed
// by the input, NAME.certd everything the server sends back.
const goldenDir = "../follow/testdata"

// TestGoldenStream pins the full STREAM transcript — hello response,
// echo lines, BAD notes, quarantine report, final verdicts, DONE or ERR —
// byte for byte. Every golden was captured from the two-loop
// implementation PR 15 replaced, except latched-retire and retired-id:
// those two record the PR 15 fixes (a latched criterion no longer stops
// retirement; one well-formedness answer per event), which change their
// retirement summary lines and nothing else — see DESIGN.md, "One follow
// session". net.Pipe keeps the exchange deterministic (no kernel
// buffers, no RST on the read-error case).
func TestGoldenStream(t *testing.T) {
	ins, err := filepath.Glob(filepath.Join(goldenDir, "*.in"))
	if err != nil || len(ins) == 0 {
		t.Fatalf("no golden cases under %s: %v", goldenDir, err)
	}
	type streamCase struct{ name, input string }
	cases := []streamCase{{
		// No newline within the scanner's 1 MB limit: a read error, which
		// must end in ERR and never in DONE.
		name: "longline", input: "STREAM du\nwrite 1 X 1\n" + strings.Repeat("x", 2<<20),
	}}
	for _, in := range ins {
		src, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{strings.TrimSuffix(filepath.Base(in), ".in"), string(src) + "END\n"})
	}
	for _, c := range cases {
		c := c // the writer goroutine outlives the iteration's statement
		t.Run(c.name, func(t *testing.T) {
			srv, cli := net.Pipe()
			defer cli.Close()
			_ = cli.SetDeadline(time.Now().Add(30 * time.Second))
			go NewServer(Config{}).handleStream(srv)
			go func() {
				_, _ = io.WriteString(cli, c.input) // errors once the server gives up — fine
			}()
			reply, err := io.ReadAll(cli)
			if err != nil {
				t.Fatal(err)
			}
			got := string(reply)
			golden := filepath.Join(goldenDir, c.name+".certd")
			if *update {
				if err := os.WriteFile(golden, reply, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("STREAM transcript diverges from %s:\n%s", golden, firstDiff(got, string(want)))
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
