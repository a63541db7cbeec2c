// Command stmbench measures the shipped STM engines under a configurable
// workload (throughput, abort rate) and optionally certifies recorded
// episodes against the correctness criteria — the repository's
// engine-comparison experiment (§5 of the paper: deferred-update engines
// are du-opaque; the pessimistic in-place engine is not).
//
// Usage:
//
//	stmbench [-engines tl2,norec,...] [-objects 8] [-goroutines 4]
//	         [-txns 2000] [-ops 4] [-read-frac 0.5] [-seed 1]
//	         [-certify] [-episodes 20] [-interleaved] [-jobs N]
//	stmbench soak [-engines ...] [-rounds 6] [-seed 1] [-jobs N] [-node-limit N] [-faults]
//	stmbench explore [-engines ...] [-threads 2] [-txns 1] [-ops 2] [-plans 4]
//	         [-seed 1] [-max-schedules N] [-jobs N] [-opacity]
//	stmbench scale [-engines tl2,tl2+karma,pdur,...] [-workloads read-heavy,...]
//	         [-goroutines 1,2,4,8] [-txns 20000] [-repeat 3] [-seed 1] [-json]
//
// The scale subcommand measures goroutines-vs-throughput curves for
// the engine×CM matrix over three canonical workload shapes
// (read-heavy, write-hotspot, disjoint), best of -repeat runs per cell
// (see scale.go).
//
// The explore subcommand replaces sampling with proof: for each engine it
// enumerates *every* schedule of the deterministic stepper's space for a
// set of small seeded plans (harness.ExplorePlanCtx, one checkfarm
// explore job per engine) and reports a per-plan verdict — proven
// du-opaque on all schedules of that space, violated with the causing
// schedule pinned, or budget-exhausted with frontier stats.
//
// The soak subcommand runs the differential certification soak of
// internal/checkfarm: every engine against every implemented criterion
// over a randomized workload grid (each shape once under real goroutines
// and once under the deterministic interleaved scheduler), reporting
// criteria divergences with greedily shrunk minimal counterexamples.
// -certify, soak and explore run as checkfarm jobs (JobSpec.Run), and
// -jobs shards their episodes, cells or plans across workers
// (0 = GOMAXPROCS); the report is the same at every -jobs.
//
// soak -faults is the fault-injection soak (internal/chaos): engine faults
// in the concurrent cells, junk and truncation in a replay of each
// certified one, and worker faults that degrade some shards. A soundness
// flip — a deferred-update engine's history that du-opacity rejects, or a
// replay that breaks the stream's contract — prints a FLIP: line and
// fails the command, with or without -faults.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"duopacity/internal/chaos"
	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "soak" {
		return runSoak(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "explore" {
		return runExplore(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "scale" {
		return runScale(args[1:], stdout)
	}
	fs := flag.NewFlagSet("stmbench", flag.ContinueOnError)
	engineList := fs.String("engines", strings.Join(engines.Names(), ","), "comma-separated engines")
	objects := fs.Int("objects", 8, "number of t-objects")
	goroutines := fs.Int("goroutines", 4, "concurrent workers")
	txns := fs.Int("txns", 2000, "transactions per worker")
	ops := fs.Int("ops", 4, "operations per transaction")
	readFrac := fs.Float64("read-frac", 0.5, "fraction of reads")
	seed := fs.Int64("seed", 1, "random seed")
	certify := fs.Bool("certify", false, "also certify recorded episodes")
	episodes := fs.Int("episodes", 20, "episodes per engine when certifying")
	jobs := fs.Int("jobs", 1, "shard certification episodes across this many workers (0 = GOMAXPROCS)")
	interleaved := fs.Bool("interleaved", false,
		"certify deterministic interleaved episodes instead of real goroutines (reproducible on any machine)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	names := splitNames(*engineList)
	if *interleaved && !*certify {
		return fmt.Errorf("-interleaved only applies to certification; pass -certify")
	}

	var rows []harness.RunStats
	for _, name := range names {
		stats, err := harness.Run(harness.Workload{
			Engine:           name,
			Objects:          *objects,
			Goroutines:       *goroutines,
			TxnsPerGoroutine: *txns,
			OpsPerTxn:        *ops,
			ReadFraction:     harness.ExplicitReadFraction(*readFrac),
			Seed:             *seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, stats)
	}
	fmt.Fprintln(stdout, "== throughput ==")
	fmt.Fprint(stdout, harness.FormatRunTable(rows))

	if !*certify {
		return nil
	}
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity, spec.StrictSerializability}
	fmt.Fprintln(stdout, "\n== certification (small recorded episodes) ==")
	for _, name := range names {
		// Contended shape: enough concurrent read/write overlap that
		// non-deferred-update engines expose reads of in-flight writes,
		// while each episode stays small enough for exact checking.
		cfg := harness.CertConfig{
			Workload: harness.Workload{
				Engine:           name,
				Objects:          4,
				Goroutines:       8,
				TxnsPerGoroutine: 3,
				OpsPerTxn:        6,
				ReadFraction:     harness.ExplicitReadFraction(*readFrac),
				Seed:             *seed,
			},
			Episodes:    *episodes,
			Interleaved: *interleaved,
		}
		job := checkfarm.JobSpec{Kind: checkfarm.KindCertify, Certify: &checkfarm.CertifyJob{Config: cfg, Criteria: criteria}}
		rep, err := job.Run(context.Background(), *jobs)
		if err != nil {
			return err
		}
		stats := *rep.Certify
		fmt.Fprint(stdout, harness.FormatCertTable(stats, criteria))
		for _, c := range criteria {
			if r := stats.FirstReason[c]; r != "" {
				fmt.Fprintf(stdout, "  first %s rejection: %s\n", c, r)
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// runExplore is the systematic certification mode: per engine, a set of
// seeded small plans is enumerated exhaustively — every schedule of the
// deterministic stepper's space for every plan — and each plan gets a
// proof (du-opaque on all schedules of that space), a refutation pinned
// at the causing schedule, or a budget report. This is the ROADMAP's
// "prove small engines du-opaque per plan rather than sample them" as a
// CLI surface.
func runExplore(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stmbench explore", flag.ContinueOnError)
	engineList := fs.String("engines", strings.Join(engines.Names(), ","), "comma-separated engines")
	threads := fs.Int("threads", 2, "virtual threads per plan")
	txns := fs.Int("txns", 1, "transactions per thread")
	ops := fs.Int("ops", 2, "operations per transaction")
	objects := fs.Int("objects", 2, "number of t-objects")
	readFrac := fs.Float64("read-frac", 0.5, "fraction of reads")
	seed := fs.Int64("seed", 1, "plan seed")
	plans := fs.Int("plans", 4, "seeded plans per engine")
	budget := fs.Int("max-schedules", 0, "schedules per exploration (0 = default)")
	maxAttempts := fs.Int("max-attempts", 0, "retry bound per transaction (0 = default)")
	jobs := fs.Int("jobs", 0, "shard plans across this many workers (0 = GOMAXPROCS)")
	opacity := fs.Bool("opacity", false, "explore opacity instead of du-opacity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rf := harness.ExplicitReadFraction(*readFrac)
	cfg := harness.ExploreConfig{
		MaxSchedules: *budget,
		MaxAttempts:  *maxAttempts,
	}
	if *opacity {
		cfg.Criterion = spec.Opacity
	}
	for _, name := range splitNames(*engineList) {
		ps := make([]checkfarm.WirePlan, *plans)
		for i := range ps {
			ps[i] = checkfarm.WirePlanOf(harness.PlanOf(harness.Workload{
				Engine:           name,
				Objects:          *objects,
				Goroutines:       *threads,
				TxnsPerGoroutine: *txns,
				OpsPerTxn:        *ops,
				ReadFraction:     rf,
				Seed:             *seed + int64(i),
			}))
		}
		job := checkfarm.JobSpec{Kind: checkfarm.KindExplore, Explore: &checkfarm.ExploreJob{Engine: name, Plans: ps, Config: cfg}}
		rep, err := job.Run(context.Background(), *jobs)
		if err != nil {
			return err
		}
		proven, violated, budgeted := 0, 0, 0
		for _, r := range rep.Explore {
			switch r.Outcome {
			case harness.ProvenDUOpaque:
				proven++
			case harness.ViolationFound:
				violated++
			default:
				budgeted++
			}
		}
		fmt.Fprintf(stdout, "== %s: %d proven, %d violated, %d budget-exhausted ==\n",
			name, proven, violated, budgeted)
		fmt.Fprint(stdout, harness.FormatExploreTable(rep.Explore))
	}
	return nil
}

func runSoak(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stmbench soak", flag.ContinueOnError)
	engineList := fs.String("engines", strings.Join(checkfarm.SoakEngines(), ","), "comma-separated engines")
	rounds := fs.Int("rounds", 6, "workload grid rounds per engine")
	seed := fs.Int64("seed", 1, "workload grid seed")
	jobs := fs.Int("jobs", 0, "worker count (0 = GOMAXPROCS)")
	nodeLimit := fs.Int("node-limit", 0, "bound each exact check (0 = soak default)")
	faults := fs.Bool("faults", false, "inject engine, stream and worker faults, and fail on a soundness flip")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := checkfarm.SoakConfig{
		Engines:   splitNames(*engineList),
		Rounds:    *rounds,
		Seed:      *seed,
		NodeLimit: *nodeLimit,
		Faults:    *faults,
	}
	ctx := context.Background()
	if *faults {
		ctx = chaos.WithFarmFaults(ctx, checkfarm.SoakFarmFaults())
	}
	rep, err := checkfarm.JobSpec{Kind: checkfarm.KindSoak, Soak: &checkfarm.SoakJob{Config: cfg}}.Run(ctx, *jobs)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, checkfarm.FormatSoakReport(cfg, rep.Soak))
	if n := len(rep.Soak.Flips); n > 0 {
		return fmt.Errorf("soak found %d soundness flip(s)", n)
	}
	return nil
}
