package checkfarm

import (
	"context"
	"strings"
	"testing"

	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

func shortSoakConfig() SoakConfig {
	cfg := SoakConfig{Seed: 11, Rounds: 2}
	if testing.Short() {
		cfg.Rounds = 1
	}
	return cfg
}

// TestSoakDifferential is the differential soak smoke: all seven engine
// families against every implemented criterion in one run, with the
// paper's separation surfacing as a shrunk minimal counterexample for the
// pessimistic in-place engine under du-opacity. Each criterion is also
// decided on its own by spec.Check, the per-criterion reference: a cell's
// verdict has its OK, Undecided and Reason, except that under the node
// limit the cell's spec.CheckAll may accept where Check gives up.
func TestSoakDifferential(t *testing.T) {
	cfg := shortSoakConfig()
	res := mustRun(t, context.Background(), soakJob(cfg), 0).Soak
	full := cfg.withDefaults()
	if len(full.Engines) != 7 {
		t.Fatalf("default soak covers %d engines, want 7", len(full.Engines))
	}
	if got, want := len(res.Cells), full.Rounds*len(full.Engines)*2; got != want {
		t.Fatalf("soak ran %d cells, want %d", got, want)
	}
	// Every engine must have produced at least one decided observation per
	// criterion class (the grid is small; undecided and skipped cells are
	// tolerated, a fully empty engine row is not).
	for _, e := range full.Engines {
		decided := 0
		for _, c := range full.Criteria {
			decided += res.Stats[e].Accepted[c] + res.Stats[e].Rejected[c]
		}
		if decided == 0 {
			t.Errorf("engine %s: no decided cells", e)
		}
	}

	for _, cell := range res.Cells {
		if cell.Skipped {
			continue
		}
		for _, c := range full.Criteria {
			v, ref := cell.Verdicts[c], spec.Check(cell.History, c, spec.WithNodeLimit(full.NodeLimit))
			if ref.Undecided && v.OK || v.OK == ref.OK && v.Undecided == ref.Undecided && v.Reason == ref.Reason {
				continue
			}
			t.Errorf("%s round %d probe=%v %s: cell says %s, spec.Check %s", cell.Engine, cell.Round, cell.Probe, c, v, ref)
		}
	}

	// The paper's Section 5 claim, as a soak finding: ple violates
	// du-opacity, and the violation shrinks to a minimal counterexample
	// that still violates and never grew.
	min := res.MinimalCounterexample("ple", spec.DUOpacity)
	if min == nil {
		t.Fatal("soak found no shrunk ple du-opacity counterexample")
	}
	v := spec.Check(min, spec.DUOpacity)
	if v.OK || v.Undecided {
		t.Fatalf("shrunk counterexample no longer violates du-opacity: %s", v)
	}
	// When the soak surfaced the paper's full separation on ple (du-opacity
	// rejects while final-state opacity accepts), the shrunk witness must
	// still exhibit it — the signature-preserving shrink guarantees this.
	for _, d := range res.Divergences {
		if d.Engine != "ple" || d.Criterion != spec.DUOpacity {
			continue
		}
		for _, c := range d.Accepted {
			if c == spec.FinalStateOpacity {
				if fv := spec.Check(d.Minimal, spec.FinalStateOpacity); !fv.OK {
					t.Errorf("separation witness lost in shrinking: minimal no longer final-state opaque:\n%s", d.Minimal)
				}
			}
		}
	}
	for _, d := range res.Divergences {
		if d.Minimal.Len() > d.History.Len() {
			t.Errorf("%s/%s: shrinking grew the history: %d -> %d events",
				d.Engine, d.Criterion, d.History.Len(), d.Minimal.Len())
		}
		if dv := spec.Check(d.Minimal, d.Criterion, spec.WithNodeLimit(full.NodeLimit)); dv.OK {
			t.Errorf("%s/%s: shrunk history no longer violates", d.Engine, d.Criterion)
		}
	}

	report := FormatSoakReport(cfg, res)
	for _, want := range append([]string{"differential soak", "du-opacity"}, full.Engines...) {
		if !strings.Contains(report, want) {
			t.Errorf("soak report missing %q:\n%s", want, report)
		}
	}
	t.Logf("\n%s", report)
}

// TestSoakDeferredUpdateEnginesStayClean pins the positive side of the
// differential: the deferred-update engines' interleaved probe cells are
// never rejected by du-opacity (probes are deterministic, so this cannot
// flake; concurrent cells are exercised but asserted only for the
// abort-free serial baseline).
func TestSoakDeferredUpdateEnginesStayClean(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Engines = []string{"gl", "tl2", "norec"}
	cfg.Criteria = []spec.Criterion{spec.DUOpacity}
	res := mustRun(t, context.Background(), soakJob(cfg), 2).Soak
	for _, cell := range res.Cells {
		if cell.Skipped || !cell.Probe {
			continue
		}
		if !engines.TraitsOf(cell.Engine).DeferredUpdate {
			continue
		}
		v := cell.Verdicts[spec.DUOpacity]
		if !v.OK && !v.Undecided {
			t.Errorf("%s round %d probe: deferred-update engine rejected: %s",
				cell.Engine, cell.Round, v.Reason)
		}
	}
}
