package harness

import (
	"context"
	"strings"
	"testing"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// TestChaosSoakPureHarness runs the engine and stream stages (no farm
// hook) across the default kill-safe engines and asserts the soak's
// invariants: faults exercised, exact junk accounting, zero flips.
func TestChaosSoakPureHarness(t *testing.T) {
	rep, err := ChaosSoak(ChaosConfig{Trials: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	for _, f := range rep.Flips {
		t.Errorf("soundness flip: %s", f)
	}
	if rep.Trials != 4*40 {
		t.Fatalf("ran %d trials, want %d", rep.Trials, 4*40)
	}
	if rep.SpuriousAborts == 0 || rep.CommitDelays == 0 || rep.Kills == 0 {
		t.Errorf("engine faults not exercised: %s", rep.String())
	}
	if rep.JunkInjected == 0 || rep.JunkInjected != rep.JunkRejected {
		t.Errorf("junk contract broken: injected=%d rejected=%d", rep.JunkInjected, rep.JunkRejected)
	}
	if rep.FarmDegraded != 0 {
		t.Errorf("no farm hook was set but FarmDegraded = %d", rep.FarmDegraded)
	}
}

// TestChaosSoakNonKillSafeEngine: on a lock-holding engine kill faults
// must be downgraded (never abandoning a lock-holding transaction would
// deadlock the trial), so the soak completes with zero kills.
func TestChaosSoakNonKillSafeEngine(t *testing.T) {
	rep, err := ChaosSoak(ChaosConfig{Engines: []string{"gl", "ple"}, Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kills != 0 {
		t.Fatalf("kill faults injected on non-kill-safe engines: %d", rep.Kills)
	}
	for _, f := range rep.Flips {
		// ple is not deferred-update: its histories may honestly violate
		// du-opacity, which the soak must NOT report as a flip (the
		// deferred-update invariant is gated on the DeferredUpdate trait).
		t.Errorf("soundness flip: %s", f)
	}
}

// TestChaosSoakFarmDegradationContract: a farm hook that reports
// degradation with a decided verdict is a soundness flip; one that
// reports degradation with an undecided verdict is accounted cleanly.
func TestChaosSoakFarmDegradationContract(t *testing.T) {
	honest := func(ctx context.Context, h *history.History, c spec.Criterion, nodeLimit int) (spec.Verdict, string, error) {
		return spec.Verdict{Criterion: c, Undecided: true, Reason: "degraded: synthetic"}, "synthetic", nil
	}
	rep, err := ChaosSoak(ChaosConfig{Engines: []string{"tl2"}, Trials: 6, Seed: 5, Farm: honest})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FarmDegraded != 6 {
		t.Fatalf("FarmDegraded = %d, want 6", rep.FarmDegraded)
	}
	if len(rep.Flips) != 0 {
		t.Fatalf("honest degradation flagged as flips: %v", rep.Flips)
	}

	lying := func(ctx context.Context, h *history.History, c spec.Criterion, nodeLimit int) (spec.Verdict, string, error) {
		// Degraded but decided — the contract violation the soak exists to
		// catch.
		return spec.Verdict{Criterion: c, OK: true}, "synthetic", nil
	}
	rep, err = ChaosSoak(ChaosConfig{Engines: []string{"tl2"}, Trials: 3, Seed: 5, Farm: lying})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flips) == 0 {
		t.Fatal("decided-while-degraded farm verdicts were not flagged")
	}
	for _, f := range rep.Flips {
		if !strings.Contains(f, "degraded farm run returned a decided verdict") {
			t.Fatalf("unexpected flip: %s", f)
		}
	}
}

// TestChaosSoakFlipDetection: a farm hook that inverts decided verdicts
// must be caught by the differential.
func TestChaosSoakFlipDetection(t *testing.T) {
	inverting := func(ctx context.Context, h *history.History, c spec.Criterion, nodeLimit int) (spec.Verdict, string, error) {
		v := spec.Check(h, c, spec.WithNodeLimit(nodeLimit))
		if !v.Undecided {
			v.OK = !v.OK
		}
		return v, "", nil
	}
	rep, err := ChaosSoak(ChaosConfig{Engines: []string{"tl2"}, Trials: 5, Seed: 9, Farm: inverting})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Flips {
		if strings.Contains(f, "farm verdict flipped") {
			found = true
			// The flip entry must carry a shrunken reproduction in the
			// histio text format, not just a seed.
			if !strings.Contains(f, "shrunk to") {
				t.Fatalf("flip entry has no shrunken reproduction: %s", f)
			}
		}
	}
	if !found {
		t.Fatalf("inverted farm verdicts not detected; flips: %v", rep.Flips)
	}
}

// TestChaosSoakUnknownEngine: infrastructure failures are errors, not
// soak data.
func TestChaosSoakUnknownEngine(t *testing.T) {
	if _, err := ChaosSoak(ChaosConfig{Engines: []string{"bogus"}, Trials: 1}); err == nil {
		t.Fatal("unknown engine did not error")
	}
}
