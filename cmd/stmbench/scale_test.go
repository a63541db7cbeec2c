package main

import (
	"encoding/json"
	"strings"
	"testing"

	"duopacity/internal/harness"
)

func TestRunScaleTable(t *testing.T) {
	var out strings.Builder
	err := run([]string{"scale", "-engines", "tl2,pdur+backoff", "-workloads", "disjoint",
		"-goroutines", "1,2", "-txns", "200", "-repeat", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"disjoint", "tl2", "pdur+backoff", "g=1", "g=2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scale table missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunScaleJSON(t *testing.T) {
	var out strings.Builder
	err := run([]string{"scale", "-engines", "norec+karma", "-workloads", "write-hotspot",
		"-goroutines", "1", "-txns", "100", "-repeat", "1", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var points []harness.ScalePoint
	if err := json.Unmarshal([]byte(out.String()), &points); err != nil {
		t.Fatalf("scale -json did not emit valid JSON: %v\n%s", err, out.String())
	}
	if len(points) != 1 || points[0].Engine != "norec+karma" || points[0].TxnPerSec <= 0 {
		t.Fatalf("unexpected points: %+v", points)
	}
}

func TestRunScaleRejectsBadInput(t *testing.T) {
	if err := run([]string{"scale", "-engines", "tl2+bogus", "-txns", "10"}, &strings.Builder{}); err == nil {
		t.Error("bad CM suffix accepted")
	}
	if err := run([]string{"scale", "-workloads", "bogus", "-txns", "10"}, &strings.Builder{}); err == nil {
		t.Error("bad workload accepted")
	}
	if err := run([]string{"scale", "-goroutines", "1,zero"}, &strings.Builder{}); err == nil {
		t.Error("bad goroutine list accepted")
	}
}
