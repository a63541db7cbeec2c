package harness

import (
	"strings"
	"testing"
)

// Disjoint workloads confine each goroutine to its own contiguous
// object block.
func TestPlanForDisjoint(t *testing.T) {
	w := Workload{
		Engine: "tl2", Objects: 32, Goroutines: 4,
		TxnsPerGoroutine: 20, OpsPerTxn: 4, Seed: 7, Disjoint: true,
	}
	p := PlanOf(w)
	for g, txns := range p.Threads {
		lo, hi := g*8, (g+1)*8
		for _, ops := range txns {
			for _, op := range ops {
				if op.Obj < lo || op.Obj >= hi {
					t.Fatalf("goroutine %d accesses object %d outside block [%d,%d)", g, op.Obj, lo, hi)
				}
			}
		}
	}
	// Objects grow to cover every goroutine when too small.
	small := Workload{Engine: "tl2", Objects: 2, Goroutines: 4, Disjoint: true}.withDefaults()
	if small.Objects < small.Goroutines {
		t.Fatalf("Objects = %d not grown to Goroutines = %d", small.Objects, small.Goroutines)
	}
}

func TestScaleWorkloadShapes(t *testing.T) {
	for _, kind := range ScaleWorkloadNames() {
		w, err := ScaleWorkload(kind, "tl2", 8, 100, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if w.Goroutines != 8 || w.TxnsPerGoroutine != 100 {
			t.Errorf("%s: shape lost goroutines/txns: %+v", kind, w)
		}
	}
	if w, _ := ScaleWorkload("disjoint", "pdur", 8, 100, 1); !w.Disjoint || w.Objects != 128 {
		t.Errorf("disjoint shape: %+v", w)
	}
	if _, err := ScaleWorkload("bogus", "tl2", 1, 1, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestScaleCurvesSmoke(t *testing.T) {
	// Both engines back off: plain tl2 on a four-object hotspot can abort
	// a transaction MaxAttempts times in a row under unlucky scheduling,
	// and this test pins the sweep's shape, not a contention outcome.
	cfg := ScaleConfig{
		Engines:          []string{"tl2+backoff", "pdur+backoff"},
		Workloads:        []string{"write-hotspot"},
		Goroutines:       []int{1, 2},
		TxnsPerGoroutine: 200,
		Repeat:           1,
		Seed:             5,
	}
	points, err := ScaleCurves(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.TxnPerSec <= 0 {
			t.Errorf("%s/%s/g%d: no throughput", p.Engine, p.Workload, p.Goroutines)
		}
		if p.Failed != 0 {
			t.Errorf("%s/%s/g%d: %d failed txns", p.Engine, p.Workload, p.Goroutines, p.Failed)
		}
	}
	table := FormatScaleTable(points)
	for _, want := range []string{"write-hotspot", "tl2", "pdur+backoff", "g=1", "g=2"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// Invalid engine names fail before measurement.
	if _, err := ScaleCurves(ScaleConfig{Engines: []string{"tl2+bogus"}}); err == nil {
		t.Error("invalid engine accepted")
	}
}
