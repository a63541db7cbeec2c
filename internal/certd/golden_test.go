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

	"duopacity/internal/harness"
	"duopacity/internal/histio"
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
	for _, c := range goldenStreamCases(t) {
		t.Run(c.name, func(t *testing.T) {
			reply := streamTranscript(t, c.input)
			golden := filepath.Join(goldenDir, c.name+".certd")
			if *update {
				if err := os.WriteFile(golden, []byte(reply), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			compareGolden(t, golden, reply)
		})
	}
}

// TestGoldenStreamAfterReuse: a released session's streams are reused by
// the next one, and the reuse must not show. Every golden is replayed in
// one process, each right after a different long stream (tl2, 4 x 50
// transactions on 128 objects, a seed per golden, du and opacity at
// retire 8, so that it leaves a pooled stream and a spare stream full of
// other transactions and objects behind), and every transcript must still
// match byte for byte — latched-retire's retirements rebuilding into the
// spare stream included.
func TestGoldenStreamAfterReuse(t *testing.T) {
	for i, c := range goldenStreamCases(t) {
		h, _, err := harness.RunInterleaved(harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 128, OpsPerTxn: 4, ReadFraction: 0.5, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		var before strings.Builder
		before.WriteString("STREAM du,opacity retire=8 quiet\n")
		if err := histio.WriteEvents(&before, h.Events()); err != nil {
			t.Fatal(err)
		}
		if reply := streamTranscript(t, before.String()+"END\n"); !strings.HasSuffix(reply, "violations=0\n") {
			t.Fatalf("the stream before %s did not end clean:\n%s", c.name, reply)
		}
		compareGolden(t, filepath.Join(goldenDir, c.name+".certd"), streamTranscript(t, c.input))
	}
}

type streamCase struct{ name, input string }

// goldenStreamCases are the STREAM goldens: a synthetic read-error case
// and every NAME.in under goldenDir, terminated by END.
func goldenStreamCases(t *testing.T) []streamCase {
	ins, err := filepath.Glob(filepath.Join(goldenDir, "*.in"))
	if err != nil || len(ins) == 0 {
		t.Fatalf("no golden cases under %s: %v", goldenDir, err)
	}
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
	return cases
}

// streamTranscript runs input through handleStream over net.Pipe and
// returns everything the server sends back.
func streamTranscript(t *testing.T, input string) string {
	t.Helper()
	srv, cli := net.Pipe()
	defer cli.Close()
	_ = cli.SetDeadline(time.Now().Add(30 * time.Second))
	go NewServer(Config{}).handleStream(srv)
	go func() {
		_, _ = io.WriteString(cli, input) // errors once the server gives up — fine
	}()
	reply, err := io.ReadAll(cli)
	if err != nil {
		t.Fatal(err)
	}
	return string(reply)
}

// compareGolden fails t when got differs from the golden file's bytes.
func compareGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("STREAM transcript diverges from %s:\n%s", golden, firstDiff(got, string(want)))
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
