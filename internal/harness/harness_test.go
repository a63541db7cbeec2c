package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

func smallWorkload(engine string, seed int64) Workload {
	return Workload{
		Engine:           engine,
		Objects:          4,
		Goroutines:       3,
		TxnsPerGoroutine: 3,
		OpsPerTxn:        3,
		ReadFraction:     0.5,
		Seed:             seed,
	}
}

// TestRunAllEngines runs every engine once. With no contention manager a
// conflicting engine can livelock a transaction through all its retries
// under unlucky scheduling, so on those only the accounting is pinned
// (every transaction commits or fails); each is run again with backoff,
// where no transaction may exhaust its retries. gl and ple never
// conflict, so they must commit everything as they are.
func TestRunAllEngines(t *testing.T) {
	livelockable := map[string]bool{}
	names := engines.Names()
	for _, e := range engines.CMEngines() {
		livelockable[e] = true
		names = append(names, e+"+backoff")
	}
	for _, name := range names {
		w := smallWorkload(name, 1)
		w.TxnsPerGoroutine = 20
		stats, err := Run(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := int64(w.Goroutines * w.TxnsPerGoroutine)
		if stats.Commits+stats.Failed != want {
			t.Errorf("%s: commits+failed = %d, want %d", name, stats.Commits+stats.Failed, want)
		}
		if stats.Failed > 0 && !livelockable[name] {
			t.Errorf("%s: %d transactions exhausted retries", name, stats.Failed)
		}
		if stats.TxnPerSec() <= 0 {
			t.Errorf("%s: nonpositive throughput", name)
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if _, err := Run(Workload{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, _, err := RunRecorded(Workload{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted by RunRecorded")
	}
}

func TestRunRecordedProducesCompleteHistory(t *testing.T) {
	h, stats, err := RunRecorded(smallWorkload("tl2", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Complete() {
		t.Fatal("recorded history has pending operations")
	}
	if int64(h.NumTxns()) != stats.Commits+stats.Aborts+stats.Failed {
		t.Errorf("history has %d txns; stats: %d commits, %d aborts, %d failed",
			h.NumTxns(), stats.Commits, stats.Aborts, stats.Failed)
	}
	if !spec.UniqueWrites(h) {
		t.Error("recorded workload should have unique writes")
	}
}

// TestCertifyDeferredUpdateEngines is experiment S1: deferred-update
// engines produce only du-opaque histories.
func TestCertifyDeferredUpdateEngines(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}
	for _, name := range []string{"tl2", "norec", "gl"} {
		cfg := CertConfig{Workload: smallWorkload(name, 3), Episodes: 8}
		stats, err := Certify(cfg, criteria)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Rejected[spec.DUOpacity] > 0 {
			t.Errorf("%s: %d episodes rejected by du-opacity: %s",
				name, stats.Rejected[spec.DUOpacity], stats.FirstReason[spec.DUOpacity])
		}
		if stats.Episodes == 0 {
			t.Errorf("%s: all episodes skipped", name)
		}
	}
	// DSTM is deferred-update by construction, but its invisible-read
	// validation is not atomic with the read, so snapshot consistency has
	// a narrow scheduling-dependent window; report rather than fail.
	stats, err := Certify(CertConfig{Workload: smallWorkload("dstm", 3), Episodes: 8}, criteria)
	if err != nil {
		t.Fatalf("dstm: %v", err)
	}
	if r := stats.Rejected[spec.DUOpacity]; r > 0 {
		t.Logf("dstm: %d/%d episodes rejected (validation window): %s",
			r, stats.Episodes, stats.FirstReason[spec.DUOpacity])
	}
}

// TestCertifyPLERejects is experiment S2: the pessimistic in-place engine
// produces deferred-update violations under contention. The episodes run
// under the deterministic interleaved scheduler: real goroutines only
// expose the read-an-uncommitted-write window under lucky preemption
// (essentially never on a single-CPU machine), whereas the stepwise
// schedule drives straight through it, so every one of these 30 episodes
// rejects on every machine.
func TestCertifyPLERejects(t *testing.T) {
	cfg := CertConfig{Workload: Workload{
		Engine:           "ple",
		Objects:          4,
		Goroutines:       8,
		TxnsPerGoroutine: 4,
		OpsPerTxn:        8,
		ReadFraction:     0.5,
		Seed:             4,
	}, Episodes: 30, Interleaved: true}
	stats, err := Certify(cfg, []spec.Criterion{spec.DUOpacity})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected[spec.DUOpacity] == 0 {
		t.Fatal("pessimistic in-place engine produced no du-opacity violation in 30 interleaved episodes")
	}
	if stats.FirstReason[spec.DUOpacity] == "" {
		t.Error("missing rejection reason")
	}
}

// pleGoldenWorkload is the shape pinned by testdata/ple_violation.hist.
func pleGoldenWorkload() Workload {
	return Workload{
		Engine:           "ple",
		Objects:          3,
		Goroutines:       4,
		TxnsPerGoroutine: 2,
		OpsPerTxn:        4,
		ReadFraction:     0.5,
		Seed:             8,
	}
}

// TestCertifyPLERejectsGolden pins one violating episode as a golden
// history: the interleaved run must reproduce testdata/ple_violation.hist
// byte-for-byte, and the pinned history must stay a du-opacity violation
// (while remaining final-state opaque: ple's single writer always
// commits, so the violation is precisely the deferred-update condition).
func TestCertifyPLERejectsGolden(t *testing.T) {
	h, _, err := RunInterleaved(pleGoldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "ple_violation.hist"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := histio.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden history does not parse: %v", err)
	}
	if got, want := histio.FormatString(h), histio.FormatString(golden); got != want {
		t.Errorf("interleaved ple episode diverged from the golden history:\ngot:\n%swant:\n%s", got, want)
	}
	v := spec.CheckDUOpacity(golden)
	if v.OK || v.Undecided {
		t.Fatalf("golden history must violate du-opacity: %s", v)
	}
	if fs := spec.CheckFinalStateOpacity(golden); !fs.OK {
		t.Errorf("golden history should remain final-state opaque: %s", fs.Reason)
	}
}

// TestRunInterleavedDeterministic pins the scheduler's core contract: the
// recorded history is a pure function of the workload.
func TestRunInterleavedDeterministic(t *testing.T) {
	for _, name := range engines.Names() {
		w := smallWorkload(name, 5)
		a, sa, err := RunInterleaved(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, sb, err := RunInterleaved(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if histio.FormatString(a) != histio.FormatString(b) {
			t.Errorf("%s: two interleaved runs of the same workload diverged", name)
		}
		if sa != sb {
			t.Errorf("%s: stats diverged: %+v vs %+v", name, sa, sb)
		}
		if sa.Commits+sa.Failed != int64(w.Goroutines*w.TxnsPerGoroutine) {
			t.Errorf("%s: commits+failed = %d, want %d", name, sa.Commits+sa.Failed, w.Goroutines*w.TxnsPerGoroutine)
		}
		if !a.Complete() {
			t.Errorf("%s: interleaved history has pending operations", name)
		}
	}
}

// TestRunInterleavedDeferredUpdateEnginesClean: under the stepwise
// scheduler the deferred-update engines still certify (the scheduler can
// only produce interleavings the real engines allow).
func TestRunInterleavedDeferredUpdateEnginesClean(t *testing.T) {
	for _, name := range []string{"tl2", "norec", "gl", "dstm"} {
		h, _, err := RunInterleaved(smallWorkload(name, 6))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := spec.CheckDUOpacity(h, spec.WithNodeLimit(2_000_000))
		if v.Undecided {
			t.Logf("%s: undecided after %d nodes", name, v.Nodes)
			continue
		}
		if !v.OK {
			t.Errorf("%s: interleaved history not du-opaque: %s\n%s", name, v.Reason, h)
		}
	}
}

func TestRunInterleavedUnknownEngine(t *testing.T) {
	if _, _, err := RunInterleaved(Workload{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted by RunInterleaved")
	}
}

func TestFormatTables(t *testing.T) {
	rows := []RunStats{{Engine: "tl2", Commits: 10, Aborts: 2}}
	out := FormatRunTable(rows)
	if !strings.Contains(out, "tl2") || !strings.Contains(out, "abort-rate") {
		t.Errorf("run table missing fields:\n%s", out)
	}
	cs := CertStats{
		Engine:   "ple",
		Episodes: 3,
		Accepted: map[spec.Criterion]int{spec.DUOpacity: 1},
		Rejected: map[spec.Criterion]int{spec.DUOpacity: 2},
	}
	out = FormatCertTable(cs, []spec.Criterion{spec.DUOpacity})
	if !strings.Contains(out, "du-opacity") || !strings.Contains(out, "ple") {
		t.Errorf("cert table missing fields:\n%s", out)
	}
}

func TestAbortRateAndThroughputEdgeCases(t *testing.T) {
	var s RunStats
	if s.AbortRate() != 0 || s.TxnPerSec() != 0 {
		t.Error("zero stats should yield zero rates")
	}
}

// TestPlanOfReadFraction pins the ReadFraction defaulting contract: 0 is
// unset (defaults to 0.5, mixed plans), any negative value is the
// documented explicit zero (write-only plans).
func TestPlanOfReadFraction(t *testing.T) {
	base := Workload{Objects: 2, Goroutines: 2, TxnsPerGoroutine: 2, OpsPerTxn: 4, Seed: 3}

	w := base
	w.ReadFraction = -1
	reads, writes := 0, 0
	for _, th := range PlanOf(w).Threads {
		for _, txn := range th {
			for _, op := range txn {
				if op.Read {
					reads++
				} else {
					writes++
				}
			}
		}
	}
	if reads != 0 || writes == 0 {
		t.Errorf("negative ReadFraction: %d reads, %d writes; want write-only", reads, writes)
	}

	w.ReadFraction = 0 // unset: the 0.5 default must produce some reads
	reads = 0
	for _, th := range PlanOf(w).Threads {
		for _, txn := range th {
			for _, op := range txn {
				if op.Read {
					reads++
				}
			}
		}
	}
	if reads == 0 {
		t.Error("unset ReadFraction produced a write-only plan; want the 0.5 default")
	}
}
