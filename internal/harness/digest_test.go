package harness

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/explore_digest.golden")

// digestEngines are the eight base engines plus one contention-managed
// form each of a validating and an obstruction-free engine.
var digestEngines = []string{"gl", "tl2", "norec", "dstm", "etl", "etl+v", "ple", "pdur", "tl2+karma", "dstm+greedy"}

// digestPlans are the five pruning-soundness plans, twelve plans of the
// explore-farm shape (3 threads × 1 transaction × 3 operations over 2
// objects) and four of 2 threads × 2 transactions × 2 operations.
func digestPlans() []stm.Plan {
	var plans []stm.Plan
	for _, src := range pruningPlans {
		plans = append(plans, stm.MustParsePlan(src))
	}
	for seed := int64(1); seed <= 12; seed++ {
		plans = append(plans, PlanOf(Workload{Goroutines: 3, TxnsPerGoroutine: 1, OpsPerTxn: 3, Objects: 2, Seed: seed}))
	}
	for seed := int64(1); seed <= 4; seed++ {
		plans = append(plans, PlanOf(Workload{Goroutines: 2, TxnsPerGoroutine: 2, OpsPerTxn: 2, Objects: 2, Seed: seed}))
	}
	return plans
}

// digestConfigs are the pruned default and the pruned walk without the
// prefix cut, both at the explore-farm schedule budget, and the naive
// enumeration under a smaller one.
var digestConfigs = []struct {
	name string
	cfg  ExploreConfig
}{
	{"default", ExploreConfig{MaxSchedules: 2048}},
	{"nocut", ExploreConfig{DisablePrefixCut: true, MaxSchedules: 2048}},
	{"naive512", ExploreConfig{DisableSleepSets: true, DisableSymmetry: true, DisablePrefixCut: true, MaxSchedules: 512}},
}

// reportDigest hashes everything an exploration reports that a change to
// how the explorer executes a schedule must not move: the rendered table,
// every counter of the walk and the pinned violation.
func reportDigest(r ExploreReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
		FormatExploreTable([]ExploreReport{r}), r.Outcome, r.Schedules, r.PrefixCut, r.Violations,
		r.SleepPruned, r.SymmetryPruned, r.Steps, r.Replays, r.MaxFrontier, r.Undecided)
	if v := r.Violation; v != nil {
		fmt.Fprintf(h, "%v|%d|%s\n%s", v.Schedule, v.At, v.Verdict.Reason, histio.FormatString(v.History))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestExploreDigestGolden pins 1 260 explorations — ten engines × 21
// plans × {du-opacity, opacity} × three configurations — to
// testdata/explore_digest.golden, one line each: engine, plan index,
// criterion, configuration and the report's digest. The explorer's
// verdicts, counters and pinned violations are thereby byte-reproducible;
// a change to how it executes schedules must leave the file untouched
// (-update rewrites it, only for an intended change of results).
func TestExploreDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("1 260 explorations")
	}
	var b strings.Builder
	plans := digestPlans()
	for _, eng := range digestEngines {
		for i, p := range plans {
			for _, c := range []spec.Criterion{spec.DUOpacity, spec.Opacity} {
				for _, dc := range digestConfigs {
					cfg := dc.cfg
					cfg.Criterion = c
					r, err := ExplorePlanCtx(context.Background(), eng, p, cfg)
					if err != nil {
						t.Fatalf("%s plan %d: %v", eng, i, err)
					}
					fmt.Fprintf(&b, "%s %d %s %s %s\n", eng, i, c, dc.name, reportDigest(r))
				}
			}
		}
	}
	path := filepath.Join("testdata", "explore_digest.golden")
	if *updateDigest {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(b.String(), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("exploration diverged from the golden:\ngot:  %s\nwant: %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d lines diverged in all", bad)
	}
}
