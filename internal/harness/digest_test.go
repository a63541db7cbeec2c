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

var updateDigest = flag.Bool("update", false, "rewrite the digest goldens under testdata")

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
	{"nocut", ExploreConfig{off: prefixCut, MaxSchedules: 2048}},
	{"naive512", ExploreConfig{off: naive, MaxSchedules: 512}},
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
	compareDigest(t, "explore_digest.golden", b.String())
}

// compareDigest checks a digest against testdata/name line by line, or
// rewrites the file under -update.
func compareDigest(t *testing.T, name, digest string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateDigest {
		if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(digest, "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d diverged from %s:\ngot:  %s\nwant: %s", i+1, name, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d lines diverged in all", bad)
	}
}

// certifyDigestEngines are the certify-farm engines, the three in-place or
// lock-based ones, and one contention-managed form.
var certifyDigestEngines = []string{"tl2", "norec", "pdur", "dstm", "gl", "ple", "etl", "tl2+karma"}

// certifyDigestShapes are the certify-farm episode shape (4 threads × 3
// transactions × 4 operations over 4 objects) and a smaller 3 × 2 × 3 one.
var certifyDigestShapes = []Workload{
	{Goroutines: 4, TxnsPerGoroutine: 3, OpsPerTxn: 4, Objects: 4, Seed: 1},
	{Goroutines: 3, TxnsPerGoroutine: 2, OpsPerTxn: 3, Objects: 3, Seed: 2},
}

// TestCertifyEpisodeDigestGolden pins 400 interleaved certify episodes —
// eight engines × two shapes × 25 episodes — and the plans of the 16
// explore-farm seeds to testdata/certify_digest.golden. An episode line
// holds the run's commit/abort/failed counts, a hash of the recorded
// history's histio text and the seven verdicts of the episode's checks,
// witnesses included. Every seeded draw an episode makes (the plan per
// thread, the schedule) is thereby pinned; a change to how a generator is
// seeded or a history is assembled must leave the file untouched (-update
// rewrites it, only for an intended change of results). Every verdict but
// an accept settled by a placement (no nodes) must also render as
// spec.Check's, so a change to which order a placement keeps can move the
// file only inside those verdicts' witness brackets.
func TestCertifyEpisodeDigestGolden(t *testing.T) {
	var b strings.Builder
	criteria := spec.AllCriteria()
	for _, eng := range certifyDigestEngines {
		for si, shape := range certifyDigestShapes {
			cfg := CertConfig{Workload: shape, Episodes: 25, Interleaved: true}.WithDefaults()
			cfg.Engine = eng
			for ep := 0; ep < cfg.Episodes; ep++ {
				w := cfg.Workload
				w.Seed += int64(ep) * episodeSeedStride
				h, st, err := RunInterleaved(w)
				if err != nil {
					t.Fatalf("%s episode %d: %v", eng, ep, err)
				}
				r, err := CertifyEpisodeCtx(context.Background(), cfg, ep, criteria)
				if err != nil {
					t.Fatalf("%s episode %d: %v", eng, ep, err)
				}
				text := histio.FormatString(h)
				if got := histio.FormatString(r.History); got != text {
					t.Fatalf("%s episode %d: CertifyEpisodeCtx recorded another history than RunInterleaved", eng, ep)
				}
				fmt.Fprintf(&b, "%s %d/%d %d/%d/%d %x", eng, si, ep, st.Commits, st.Aborts, st.Failed, sha256.Sum256([]byte(text)))
				if r.Skipped {
					b.WriteString(" | skipped")
				}
				for _, c := range criteria {
					if v, ok := r.Verdicts[c]; ok {
						fmt.Fprintf(&b, " | %s", v)
						if w := spec.Check(h, c, spec.WithNodeLimit(cfg.NodeLimit)); !(v.OK && v.Nodes == 0) && v.String() != w.String() {
							t.Fatalf("%s episode %d: CheckAll renders %s (%d nodes), Check %s", eng, ep, v, v.Nodes, w)
						}
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	// The explore-farm workload's plans: shape 3 × 1 × 3 over 2 objects,
	// seeded as the benchmark seeds plan p of a run with seed 1.
	for p := 0; p < 16; p++ {
		plan := PlanOf(Workload{Goroutines: 3, TxnsPerGoroutine: 1, OpsPerTxn: 3, Objects: 2, Seed: 1*1_000_003 + int64(p)*101 + 1})
		fmt.Fprintf(&b, "plan %d objects=%d %q\n", p, plan.Objects, plan.String())
	}
	compareDigest(t, "certify_digest.golden", b.String())
}
