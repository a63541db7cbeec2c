package main

import (
	"strings"
	"testing"
)

func TestRunThroughputTable(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-engines", "gl,norec", "-txns", "20", "-goroutines", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"throughput", "gl", "norec", "txn/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCertification(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-engines", "gl", "-txns", "10", "-certify", "-episodes", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "certification") || !strings.Contains(out.String(), "du-opacity") {
		t.Errorf("certification table missing:\n%s", out.String())
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if err := run([]string{"-engines", "bogus", "-txns", "5"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunCertifyParallelJobs(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-engines", "gl", "-txns", "10", "-certify", "-episodes", "2", "-jobs", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "du-opacity") {
		t.Errorf("certification table missing:\n%s", out.String())
	}
}

func TestRunSoakSubcommand(t *testing.T) {
	var out strings.Builder
	err := run([]string{"soak", "-engines", "gl,ple", "-rounds", "1", "-seed", "11"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"differential soak", "gl", "ple", "du-opacity"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("soak report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSoakUnknownEngine(t *testing.T) {
	if err := run([]string{"soak", "-engines", "bogus", "-rounds", "1"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown engine accepted by soak")
	}
}

func TestRunExploreSubcommand(t *testing.T) {
	var out strings.Builder
	err := run([]string{"explore", "-engines", "tl2,ple", "-plans", "2", "-threads", "2", "-txns", "1", "-ops", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tl2", "ple", "proven", "du-opacity", "schedules"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explore report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunExploreUnknownEngine(t *testing.T) {
	if err := run([]string{"explore", "-engines", "bogus", "-plans", "1"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown engine accepted by explore")
	}
}

// TestRunSoakFaults: soak -faults runs the kill-safe engines faulted,
// reports the fault stages and, with no flip, exits zero.
func TestRunSoakFaults(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"soak", "-faults", "-engines", "tl2,norec,dstm,pdur", "-rounds", "2", "-seed", "7"}, &out); err != nil {
		t.Fatalf("soak -faults: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "faults: 7 concurrent cell(s) faulted") || !strings.Contains(out.String(), "flips=0") {
		t.Errorf("want 7 faulted cells (one of 8 degraded) and no flip, got:\n%s", out.String())
	}
}
