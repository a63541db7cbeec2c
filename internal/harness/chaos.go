package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"duopacity/internal/chaos"
	"duopacity/internal/gen"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
	"duopacity/internal/recorder"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

// This file is the end-to-end driver of the chaos layer (package chaos):
// ChaosSoak runs randomized fault schedules through all three stages of
// the certification pipeline — engine, stream, farm — and asserts the
// soundness-under-chaos invariant on each: faults may turn verdicts into
// honest undecided results or reported-and-rejected input, but they never
// flip OK↔violation against a fault-free differential of the same
// history. Any flip is recorded in ChaosReport.Flips; CI runs the soak
// under -race with a fixed seed grid and fails on a non-empty list. A
// verdict-disagreement flip is shrunk before reporting (gen.Shrink with
// the disagreement as the interestingness predicate — the differential
// analogue of gen.ShrinkViolation), so the flip entry carries a minimal
// reproducing history in the histio text format, not just a seed.

// ChaosFarmFunc is the farm stage of the soak, injected by the caller
// because package checkfarm sits above harness: it certifies h against c
// under the fault schedule attached to ctx (chaos.WithFarmFaults) and
// returns the verdict together with the degradation reason the farm
// reported, or "" for a clean run. checkfarm's soak test and cmd/stmbench's
// chaos subcommand wire it to a one-history check job.
type ChaosFarmFunc func(ctx context.Context, h *history.History, c spec.Criterion, nodeLimit int) (spec.Verdict, string, error)

// Every trial certifies du-opacity on a tiny workload: chaosGoroutines
// goroutines run chaosTxns transactions of chaosOps operations each over
// chaosObjects t-objects. Soundness flips need crashy schedules, not big
// histories, and every trial batch-checks its history as the
// differential, so trials must stay cheap.
const (
	chaosCriterion  = spec.DUOpacity
	chaosObjects    = 4
	chaosGoroutines = 3
	chaosTxns       = 2
	chaosOps        = 3
)

// ChaosConfig parameterizes a soak. The zero value is runnable: the
// kill-safe engines and a modest fault profile.
type ChaosConfig struct {
	// Engines to soak (default: the engines whose KillSafe trait is set,
	// in engines.Names order — tl2, norec, dstm, pdur — so thread-kill
	// faults stay enabled; other engines run with kills downgraded to
	// spurious aborts).
	Engines []string
	// Trials per engine (default 50). Each trial is one randomized fault
	// schedule through all three stages.
	Trials int
	// Seed anchors the whole grid; trial t of engine i derives its seed
	// deterministically, so a soak replays exactly.
	Seed int64
	// NodeLimit bounds each check and monitor search (default 200_000).
	NodeLimit int
	// Profile is the engine-fault profile; its Seed field is overwritten
	// per trial. A zero profile defaults to {SpuriousAbort: 0.15,
	// CommitDelay: 0.25} — pass any negative probability to really disable
	// engine faults.
	Profile chaos.Profile
	// Farm, when set, runs the farm stage each trial.
	Farm ChaosFarmFunc
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if len(cfg.Engines) == 0 {
		for _, e := range engines.Names() {
			if engines.TraitsOf(e).KillSafe {
				cfg.Engines = append(cfg.Engines, e)
			}
		}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 50
	}
	if cfg.NodeLimit <= 0 {
		cfg.NodeLimit = 200_000
	}
	if cfg.Profile.SpuriousAbort == 0 && cfg.Profile.CommitDelay == 0 {
		cfg.Profile.SpuriousAbort = 0.15
		cfg.Profile.CommitDelay = 0.25
	}
	if cfg.Profile.SpuriousAbort < 0 {
		cfg.Profile.SpuriousAbort = 0
	}
	if cfg.Profile.CommitDelay < 0 {
		cfg.Profile.CommitDelay = 0
	}
	return cfg
}

// ChaosReport aggregates a soak. Flips is the soundness ledger: it must
// come back empty — every entry is a fault that changed a decided verdict
// (or slipped junk past the stream layer), which the chaos contract
// forbids.
type ChaosReport struct {
	// Trials actually run (Engines × Trials).
	Trials int
	// SpuriousAborts and CommitDelays total the engine faults injected;
	// Kills counts transactions abandoned mid-flight.
	SpuriousAborts, CommitDelays int64
	Kills                        int
	// JunkInjected and JunkRejected account the stream stage; the contract
	// is exact equality (every junk event rejected, side-effect-free).
	JunkInjected, JunkRejected int
	// Truncated counts trials whose stream was cut short of the full
	// history.
	Truncated int
	// FarmDegraded counts farm-stage runs that reported degradation (each
	// must have returned an undecided verdict).
	FarmDegraded int
	// Undecided counts trials whose fault-free reference check was itself
	// undecided (those trials assert nothing about decided agreement).
	Undecided int
	// Flips lists soundness violations, capped at 32 entries.
	Flips []string
}

// shrinkDisagreement minimizes h while the differential disagreement
// keeps reproducing (gen.Shrink in the style of gen.ShrinkViolation, with
// the disagreement as the interestingness predicate) and renders the
// minimal history in the histio text format, so a flip entry is a
// self-contained reproduction and not just a seed. Shrinking only runs on
// a flip — never in a healthy soak — so its cost is irrelevant. The
// stream-stage predicate re-feeds a junk-free monitor; a disagreement
// that somehow needs the junk interleaving to reproduce is reported
// unshrunk (gen.Shrink returns h when the predicate fails on it).
func shrinkDisagreement(h *history.History, disagree func(*history.History) bool) string {
	min := gen.Shrink(h, disagree)
	if !disagree(min) {
		return " [disagreement did not reproduce in isolation; full history kept]"
	}
	return fmt.Sprintf(" [shrunk to %d events:\n%s]", min.Len(), histio.FormatString(min))
}

func (r *ChaosReport) flip(format string, args ...any) {
	if len(r.Flips) < 32 {
		r.Flips = append(r.Flips, fmt.Sprintf(format, args...))
	}
}

// String renders the soak's one-line summary.
func (r ChaosReport) String() string {
	return fmt.Sprintf(
		"chaos soak: trials=%d aborts=%d delays=%d kills=%d junk=%d/%d truncated=%d degraded=%d undecided=%d flips=%d",
		r.Trials, r.SpuriousAborts, r.CommitDelays, r.Kills,
		r.JunkRejected, r.JunkInjected, r.Truncated, r.FarmDegraded, r.Undecided, len(r.Flips))
}

// ChaosSoak runs the configured grid of randomized fault schedules and
// returns the aggregated report. Each trial:
//
//  1. Engine stage: runs a small concurrent workload on a chaos-wrapped
//     engine (spurious aborts, delayed commits, and — on kill-safe
//     engines — transactions abandoned mid-flight), records the history,
//     and batch-checks it fault-free: that verdict is the trial's
//     reference. A deferred-update engine whose history becomes violating
//     is a flip — the injected faults are legal TM behavior, so Theorem
//     11's guarantee must survive them.
//  2. Stream stage: replays the recorded events into a fresh monitor with
//     guaranteed-ill-formed junk (chaos.JunkSource) interleaved and an
//     optional truncation cut. Every junk event must be rejected without
//     side effects, and the monitor's verdict must agree with a batch
//     check of exactly the prefix it accepted whenever both decide.
//  3. Farm stage (when cfg.Farm is set): certifies the history through
//     the caller's farm hook under an injected worker-fault schedule —
//     recovered panics must leave the verdict equal to the reference,
//     and degraded runs must come back undecided, never decided-wrong.
//
// An error return is an infrastructure failure (unknown engine, monitor
// construction); soundness violations are data, in Flips.
func ChaosSoak(cfg ChaosConfig) (ChaosReport, error) {
	cfg = cfg.withDefaults()
	var rep ChaosReport
	for ei, eng := range cfg.Engines {
		for t := 0; t < cfg.Trials; t++ {
			seed := cfg.Seed + int64(ei)*1_000_003 + int64(t)*7919
			if err := soakTrial(cfg, eng, seed, &rep); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// soakTrial runs one fault schedule through the three stages.
func soakTrial(cfg ChaosConfig, engine string, seed int64, rep *ChaosReport) error {
	rep.Trials++

	// Stage 1: engine faults. Real goroutines drive a chaos-wrapped engine
	// under the recorder; per-goroutine RNGs keep fault decisions
	// deterministic per trial even though the interleaving is not.
	base, err := engines.New(engine, chaosObjects)
	if err != nil {
		return err
	}
	prof := cfg.Profile
	prof.Seed = seed
	ceng := chaos.Wrap(base, prof)
	rec := recorder.New(ceng)
	tr := engines.TraitsOf(engine)

	var vals atomic.Int64
	var kills atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < chaosGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := lazyrand.New(seed + int64(g)*104_729)
			for txn := 0; txn < chaosTxns; txn++ {
				// A kill abandons the transaction mid-flight — no commit, no
				// abort, the recorded transaction stays live in the history.
				// Only legal on kill-safe engines; elsewhere the draw is
				// ignored (the fault downgrades to the profile's spurious
				// aborts).
				kill := tr.KillSafe && rng.Float64() < 0.15
				killAt := rng.Intn(chaosOps)
				for attempt := 0; attempt < 6; attempt++ {
					tx := rec.Begin()
					aborted, abandoned := false, false
					for op := 0; op < chaosOps; op++ {
						if kill && attempt == 0 && op == killAt {
							kills.Add(1)
							abandoned = true
							break
						}
						if rng.Float64() < 0.5 {
							if _, rerr := tx.Read(rng.Intn(chaosObjects)); rerr != nil {
								aborted = true
								break
							}
						} else if werr := tx.Write(rng.Intn(chaosObjects), vals.Add(1)); werr != nil {
							aborted = true
							break
						}
					}
					if abandoned {
						break
					}
					if aborted {
						continue
					}
					if tx.Commit() == nil {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := ceng.Stats()
	rep.SpuriousAborts += st.SpuriousAborts
	rep.CommitDelays += st.CommitDelays
	rep.Kills += int(kills.Load())

	hf := rec.History()
	const crit = chaosCriterion
	vref := spec.Check(hf, crit, spec.WithNodeLimit(cfg.NodeLimit))
	if vref.Undecided {
		rep.Undecided++
	}
	if tr.DeferredUpdate && !vref.Undecided && !vref.OK {
		rep.flip("engine=%s seed=%d: deferred-update history became violating under engine faults: %s",
			engine, seed, vref.Reason)
	}

	// Stage 2: stream faults. Feed the recorded events into a fresh
	// monitor with junk interleaved; the monitor's state must stay exactly
	// "the accepted prefix", so its verdict is compared against a batch
	// check of that prefix.
	evs := hf.Events()
	cut := len(evs)
	srng := lazyrand.New(seed ^ 0x5dee_ce66d)
	if len(evs) > 0 && srng.Float64() < 0.3 {
		cut = srng.Intn(len(evs) + 1)
		if cut < len(evs) {
			rep.Truncated++
		}
	}
	m, err := spec.NewMonitor(crit, spec.WithNodeLimit(cfg.NodeLimit))
	if err != nil {
		return err
	}
	js := chaos.NewJunkSource(seed)
	for i := 0; i < cut; i++ {
		if srng.Float64() < 0.2 {
			junk, desc := js.Junk()
			before := m.Len()
			if _, aerr := m.Append(junk); aerr == nil {
				rep.flip("engine=%s seed=%d: junk event accepted (%s): %v", engine, seed, desc, junk)
			} else {
				rep.JunkRejected++
				if m.Len() != before {
					rep.flip("engine=%s seed=%d: junk rejection had side effects (%s)", engine, seed, desc)
				}
			}
		}
		if _, aerr := m.Append(evs[i]); aerr != nil {
			rep.flip("engine=%s seed=%d: monitor rejected well-formed recorded event %v: %v",
				engine, seed, evs[i], aerr)
			return nil
		}
		js.Observe(evs[i])
	}
	rep.JunkInjected += js.Injected()

	mv := m.Verdict()
	pv := spec.Check(hf.Prefix(cut), crit, spec.WithNodeLimit(cfg.NodeLimit))
	if !mv.Undecided && !pv.Undecided && mv.OK != pv.OK {
		rep.flip("engine=%s seed=%d cut=%d/%d: monitor said ok=%v but batch check of the same prefix said ok=%v (%s / %s)%s",
			engine, seed, cut, len(evs), mv.OK, pv.OK, mv.Reason, pv.Reason,
			shrinkDisagreement(hf.Prefix(cut), func(g *history.History) bool {
				gm, merr := spec.NewMonitor(crit, spec.WithNodeLimit(cfg.NodeLimit))
				if merr != nil {
					return false
				}
				for _, e := range g.Events() {
					if _, aerr := gm.Append(e); aerr != nil {
						return false
					}
				}
				gv := gm.Verdict()
				gb := spec.Check(g, crit, spec.WithNodeLimit(cfg.NodeLimit))
				return !gv.Undecided && !gb.Undecided && gv.OK != gb.OK
			}))
	}
	if !vref.Undecided && vref.OK && !mv.Undecided && !mv.OK {
		// Prefix closure (Corollary 2): an accepted history has no
		// violating prefix, truncated or not.
		rep.flip("engine=%s seed=%d cut=%d/%d: prefix of an accepted history latched a violation: %s",
			engine, seed, cut, len(evs), mv.Reason)
	}

	// Stage 3: farm faults, against the caller's hook. Schedules rotate
	// through recovered panics (below the farm's retry bound of 3),
	// panics past the bound (must degrade), and slow shards.
	if cfg.Farm != nil {
		ff := &chaos.FarmFaults{}
		frng := lazyrand.New(seed ^ 0x2545_F491_4F6C_DD1D)
		forceDegrade := false
		switch frng.Intn(3) {
		case 0:
			ff.PanicEvery, ff.PanicAttempts = 1, 1+frng.Intn(2)
		case 1:
			ff.PanicEvery, ff.PanicAttempts = 1, 8
			forceDegrade = true
		default:
			ff.SlowEvery, ff.Delay = 1, time.Millisecond
		}
		ctx := chaos.WithFarmFaults(context.Background(), ff)
		fv, degraded, ferr := cfg.Farm(ctx, hf, crit, cfg.NodeLimit)
		if ferr != nil {
			return fmt.Errorf("chaos soak: farm stage (engine=%s seed=%d): %w", engine, seed, ferr)
		}
		if degraded != "" {
			rep.FarmDegraded++
			if !fv.Undecided {
				rep.flip("engine=%s seed=%d: degraded farm run returned a decided verdict (ok=%v): %s",
					engine, seed, fv.OK, degraded)
			}
		} else {
			if forceDegrade {
				rep.flip("engine=%s seed=%d: farm swallowed a past-retries panic schedule without reporting degradation",
					engine, seed)
			}
			if !fv.Undecided && !vref.Undecided && fv.OK != vref.OK {
				rep.flip("engine=%s seed=%d: farm verdict flipped vs fault-free reference (farm ok=%v, ref ok=%v)%s",
					engine, seed, fv.OK, vref.OK,
					shrinkDisagreement(hf, func(g *history.History) bool {
						gv, _, gerr := cfg.Farm(ctx, g, crit, cfg.NodeLimit)
						if gerr != nil {
							return false
						}
						gr := spec.Check(g, crit, spec.WithNodeLimit(cfg.NodeLimit))
						return !gv.Undecided && !gr.Undecided && gv.OK != gr.OK
					}))
			}
		}
	}
	return nil
}
