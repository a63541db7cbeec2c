package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadContract(t *testing.T) *contractFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode pins BENCHMARK.json to what the benchmark
// prints: workloads and their reasons come from workloads.json, the
// per-layer list from perLayer, and the file stays inside the limits the
// benchmark contract sets.
func TestContractMatchesCode(t *testing.T) {
	c := loadContract(t)
	s, err := loadSuite(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(s.Workloads) || len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.json %d (want equal, 2..8)", len(c.Workloads), len(s.Workloads))
	}
	for i, w := range s.Workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.json %q / %q", i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !metricName.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range c.Workloads {
		unique(w.Name)
	}
	setup := false
	for _, m := range c.EndToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(c.EndToEnd), len(c.PerLayer))
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		unique(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	if strings.Join(c.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v, want go run ./benchmark", c.Command)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// TestImportAllowlist keeps the benchmark on the surfaces ROADMAP says
// survive the planned deletions: the root facade, histio, harness, the
// JobSpec side of checkfarm, and certd's client and stats types.
func TestImportAllowlist(t *testing.T) {
	allowed := map[string]bool{
		"duopacity":                    true,
		"duopacity/internal/histio":    true,
		"duopacity/internal/harness":   true,
		"duopacity/internal/checkfarm": true,
		"duopacity/internal/certd":     true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "duopacity") && !allowed[path] {
				t.Errorf("%s imports %s, which is not on the benchmark's allowlist", file, path)
			}
		}
	}
}

// TestQuickRun drives the whole benchmark at 1/50 scale: every workload
// untraced and traced through real certd processes. It checks shape, not
// speed: every metric BENCHMARK.json names is there with its unit, no
// operation failed, and no child process outlives the run.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs certd")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the programs under test")
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("CPU accounting reads /proc")
	}
	c := loadContract(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-build-dir", dir, "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("quick run exited %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(c.Workloads); len(res.Runs) != want {
		t.Fatalf("%d runs recorded, want %d (each workload untraced and traced)", len(res.Runs), want)
	}
	for _, r := range res.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted)
		}
		want := map[string]string{}
		if r.Traced {
			for _, m := range c.PerLayer {
				want[m.Name] = m.Unit
			}
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", r.Workload, err)
			}
		} else {
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", r.Workload, r.Traced, len(r.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := r.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s traced=%v: metric %s missing", r.Workload, r.Traced, name)
			case m.Unit != unit:
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", r.Workload, name, m.Unit, unit)
			case !r.Traced && m.Value <= 0 && name != "cpu_us_per_op":
				// At this scale a phase can use less CPU than /proc's 10 ms tick.
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, name, m.Value)
			}
			if !strings.Contains(stdout.String(), name) {
				t.Errorf("%s is not printed by name", name)
			}
		}
	}

	// Every process started from the build directory must be gone.
	procs, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && strings.HasPrefix(exe, dir) {
			t.Errorf("child process %s (%s) outlived the run", filepath.Base(filepath.Dir(p)), exe)
		}
	}
}
