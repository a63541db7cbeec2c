// Command ducheck checks transactional histories against the correctness
// criteria of the paper. Histories are read from files (or stdin with
// "-") in the text format of internal/histio.
//
// Usage:
//
//	ducheck [-criteria du,opacity,...] [-witness] [-jobs N] file...
//	ducheck -follow [-criteria du,tms2,rco,opacity,finalstate] [-retire N] [-skip-bad|-strict] [-connect host:port] [-]
//	ducheck -explore -engine tl2 [-criteria du,opacity] [-max-schedules N] plan...
//
// With several files, every file is checked against every requested
// criterion. The batch is a checkfarm check job (one shard per file):
// sequentially by default, and sharded across -jobs workers (0 =
// GOMAXPROCS) otherwise, with results printed in input order regardless
// of completion order.
//
// -follow monitors a history as it is produced: events are read from
// stdin line by line (same text format) and fed to one online session
// (one shared stream, one decider per requested criterion), printing a
// verdict column after every response event — so a violation is reported
// at the exact event that caused it, while the producer is still
// running. Only the monitorable criteria (see spec.MonitorableCriteria:
// du, tms2, rco, opacity, finalstate — tms2 and rco maintain their
// conflict-order edge sets incrementally) are allowed with -follow; the
// serializability baselines stay batch-only. Malformed lines are
// reported on stderr and skipped; the session is unaffected.
// -skip-bad quarantines bad input instead: each offender is counted
// (not noted line by line), a structured report lists the first ten on
// stderr at the end, and the summary gains a "follow: events=N bad=M"
// line. -strict is the opposite policy: the first bad line aborts the
// follow with exit status 2.
// -retire N bounds the session's memory on unbounded streams: once 2N
// transactions are live, the settled committed prefix is checkpointed
// and discarded, without changing any verdict.
// -connect host:port ships the stream to a certd server instead of
// monitoring in-process: stdin lines are forwarded verbatim, the
// server's per-event verdicts and final summary stream back, and the
// criteria/retire/skip-bad/strict policies travel in the stream hello.
//
// -explore changes the input from histories to *plans* (one thread per
// line, '|' between a thread's transactions, "r<obj>"/"w<obj>"
// operations): instead of checking one recorded history, ducheck
// enumerates every schedule of the deterministic stepper's space for
// the plan — the -engine's Blocking trait plus the stepper's
// abort-backoff discipline, the space the interleaved sampler draws
// from — and certifies each online, so the answer is a per-plan proof
// ("no schedule of that space violates du-opacity") or a refutation
// pinned at the causing schedule and event. Criteria are limited to the
// prefix-closed monitorable ones (du, opacity). Each criterion's plans
// run as a checkfarm explore job; -jobs shards the plans across workers.
//
// Exit status: 0 if every requested criterion accepts every history
// (with -explore: proves every plan), 1 if any rejects (with -explore:
// any plan refuted or left undecided by the budget), 2 on input errors.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"

	"duopacity/internal/checkfarm"
	"duopacity/internal/follow"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ducheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the CLI with diagnostics on os.Stderr; runWith is the
// testable entry point with the diagnostic stream injected.
func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	return runWith(args, stdin, stdout, os.Stderr)
}

func runWith(args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("ducheck", flag.ContinueOnError)
	criteriaFlag := fs.String("criteria", "du,opacity,finalstate,tms2,rco,strictser,ser",
		"comma-separated criteria (du, opacity, finalstate, tms2, rco, strictser, ser)")
	witness := fs.Bool("witness", false, "print witness serializations")
	explain := fs.Bool("explain", false, "print the per-read deferred-update analysis")
	nodeLimit := fs.Int("node-limit", 0, "bound the search (0 = unlimited)")
	jobs := fs.Int("jobs", 1, "farm workers checking files (or exploring plans) concurrently (0 = GOMAXPROCS)")
	followFlag := fs.Bool("follow", false,
		"monitor events from stdin as they arrive (streaming ingestion; criteria limited to "+spec.MonitorableNames()+")")
	retire := fs.Int("retire", 0,
		"with -follow: retire the settled committed prefix once twice this many transactions are live, bounding monitor memory on long streams (0 = keep everything)")
	skipBad := fs.Bool("skip-bad", false,
		"with -follow: quarantine malformed or rejected input instead of noting each line — count it, report a structured summary on stderr at the end, and add bad=N to the summary line")
	strict := fs.Bool("strict", false,
		"with -follow: fail fast on the first malformed or rejected input line (exit 2)")
	connect := fs.String("connect", "",
		"with -follow: ship events to a certd stream endpoint (host:port) instead of monitoring in-process; the server's per-event verdicts and final summary stream back")
	explore := fs.Bool("explore", false,
		"arguments are plan files (internal/stm text format), not histories: enumerate every schedule of the deterministic stepper's space for each plan and prove or refute it (criteria limited to du, opacity)")
	engine := fs.String("engine", "tl2", "engine to explore plans on (with -explore)")
	maxSchedules := fs.Int("max-schedules", 0, "explore budget: schedules per plan (0 = default)")
	maxAttempts := fs.Int("max-attempts", 0, "explore retry bound per transaction (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if !*followFlag && fs.NArg() < 1 {
		return 2, fmt.Errorf("usage: ducheck [flags] <file|->...")
	}

	var criteria []spec.Criterion
	for _, name := range strings.Split(*criteriaFlag, ",") {
		c, ok := spec.ParseCriterion(strings.TrimSpace(name))
		if !ok {
			return 2, fmt.Errorf("unknown criterion %q", name)
		}
		criteria = append(criteria, c)
	}

	if *skipBad && *strict {
		return 2, fmt.Errorf("-skip-bad and -strict are mutually exclusive")
	}
	if *followFlag {
		if fs.NArg() > 1 || (fs.NArg() == 1 && fs.Arg(0) != "-") {
			return 2, fmt.Errorf("-follow reads events from stdin; no file arguments allowed")
		}
		// With the default criteria list, follow only the monitorable
		// ones; an explicit -criteria must name monitorable criteria.
		if !flagWasSet(fs, "criteria") {
			criteria = []spec.Criterion{spec.DUOpacity, spec.Opacity, spec.FinalStateOpacity}
		}
		o := follow.Options{Criteria: criteria, Retire: *retire, NodeLimit: *nodeLimit, SkipBad: *skipBad, Strict: *strict}
		if *connect != "" {
			return runFollowConnect(*connect, o, stdin, stdout)
		}
		return runFollow(o, stdin, stdout, stderr)
	}
	if *connect != "" {
		return 2, fmt.Errorf("-connect only applies to -follow")
	}
	if flagWasSet(fs, "retire") {
		return 2, fmt.Errorf("-retire only applies to -follow")
	}
	if *skipBad || *strict {
		return 2, fmt.Errorf("-skip-bad and -strict only apply to -follow")
	}

	paths := fs.Args()
	// Buffer stdin once so "-" can appear several times in a batch
	// without the later occurrences silently parsing a drained reader.
	var stdinSrc []byte
	for _, path := range paths {
		if path == "-" {
			b, err := io.ReadAll(stdin)
			if err != nil {
				return 2, err
			}
			stdinSrc = b
			break
		}
	}

	if *explore {
		// With the default criteria list, explore du-opacity only; an
		// explicit -criteria must name explorable criteria.
		if !flagWasSet(fs, "criteria") {
			criteria = []spec.Criterion{spec.DUOpacity}
		}
		// The explorer treats NodeLimit <= 0 as "use the default bound",
		// so honor the flag's documented "0 = unlimited" explicitly.
		exploreNodeLimit := *nodeLimit
		if exploreNodeLimit <= 0 {
			exploreNodeLimit = math.MaxInt
		}
		return runExplore(*engine, criteria, paths, stdinSrc, harness.ExploreConfig{
			MaxSchedules: *maxSchedules,
			MaxAttempts:  *maxAttempts,
			NodeLimit:    exploreNodeLimit,
			// Refutation needs one witness; only proving requires
			// exhausting the space, and stop-at-first never fires on a
			// violation-free plan.
			StopAtFirstViolation: true,
		}, *jobs, stdout)
	}
	hs := make([]*history.History, len(paths))
	texts := make([]string, len(paths))
	for i, path := range paths {
		src, err := readFile(path, stdinSrc)
		if err != nil {
			return 2, err
		}
		if hs[i], err = histio.Parse(bytes.NewReader(src)); err != nil {
			return 2, err
		}
		texts[i] = string(src)
	}

	// Sequential mode is the farm at one worker: one code path to keep
	// verdicts and ordering identical.
	job := checkfarm.JobSpec{Kind: checkfarm.KindCheck, Check: &checkfarm.CheckJob{
		Histories: texts, Criteria: criteria, NodeLimit: *nodeLimit,
	}}
	rep, err := job.Run(context.Background(), *jobs)
	if err != nil {
		return 2, err
	}

	violations := 0
	for i, h := range hs {
		if len(paths) > 1 {
			fmt.Fprintf(stdout, "== %s ==\n", paths[i])
		}
		fmt.Fprintf(stdout, "history: %d events, %d transactions, %d objects, unique-writes=%v\n",
			h.Len(), h.NumTxns(), len(h.Vars()), spec.UniqueWrites(h))
		if *explain {
			fmt.Fprintln(stdout, "reads:")
			for _, ri := range spec.AnalyzeReads(h) {
				fmt.Fprintf(stdout, "  %s\n", ri)
			}
		}
		for _, v := range rep.Check[i] {
			fmt.Fprintln(stdout, v)
			if !v.OK {
				violations++
			}
			if *witness && v.OK {
				fmt.Fprintf(stdout, "  witness: %s\n", v.Witness)
			}
		}
	}
	if violations > 0 {
		return 1, nil
	}
	return 0, nil
}

// runExplore is the systematic mode: each path names a plan (one thread
// per line, '|' between transactions, "r<obj>"/"w<obj>" operations), and
// every schedule of the stepper's space for each plan is enumerated and
// certified online per criterion. A proven plan means no schedule of
// that space violates the criterion; a violation pins the causing schedule
// and event. The exit status is 1 when any plan is not proven — refuted
// or budget-exhausted (an undecided exploration is not an acceptance,
// matching the batch mode's treatment of undecided verdicts).
func runExplore(engine string, criteria []spec.Criterion, paths []string, stdinSrc []byte, cfg harness.ExploreConfig, jobs int, stdout io.Writer) (int, error) {
	// Validate every criterion before exploring anything: a non-explorable
	// one must not surface mid-run after reports (and a possible exit-1
	// refutation) were already printed for the earlier criteria.
	for _, c := range criteria {
		if err := harness.CheckExploreCriterion(c); err != nil {
			return 2, err
		}
	}
	plans := make([]checkfarm.WirePlan, len(paths))
	for i, path := range paths {
		src, err := readFile(path, stdinSrc)
		if err != nil {
			return 2, err
		}
		p, err := stm.ParsePlan(string(src))
		if err != nil {
			return 2, fmt.Errorf("%s: %w", path, err)
		}
		plans[i] = checkfarm.WirePlanOf(p)
	}
	unproven := 0
	for _, c := range criteria {
		ccfg := cfg
		ccfg.Criterion = c
		job := checkfarm.JobSpec{Kind: checkfarm.KindExplore, Explore: &checkfarm.ExploreJob{Engine: engine, Plans: plans, Config: ccfg}}
		rep, err := job.Run(context.Background(), jobs)
		if err != nil {
			return 2, err
		}
		for i, r := range rep.Explore {
			if len(paths) > 1 || len(criteria) > 1 {
				fmt.Fprintf(stdout, "== %s, %s ==\n", paths[i], c)
			}
			fmt.Fprintf(stdout, "plan: %d threads, %d txns, %d ops, %d objects\n",
				len(r.Plan.Threads), r.Plan.NumTxns(), r.Plan.NumOps(), r.Plan.Objects)
			fmt.Fprintf(stdout, "%s %s: %s — %d schedules, %d cut (prefix closure), %d sleep-pruned, %d symmetry-pruned, %d steps\n",
				engine, c, r.Outcome, r.Schedules, r.PrefixCut, r.SleepPruned, r.SymmetryPruned, r.Steps)
			if r.Outcome != harness.ProvenDUOpaque {
				unproven++
			}
			if r.Violation != nil {
				fmt.Fprintf(stdout, "violation latched at event %d, schedule %v: %s\n",
					r.Violation.At, r.Violation.Schedule, r.Violation.Verdict.Reason)
				fmt.Fprint(stdout, histio.FormatString(r.Violation.History))
			}
		}
	}
	if unproven > 0 {
		return 1, nil
	}
	return 0, nil
}

// runFollow is the streaming mode: stdin lines go through one follow
// (package follow: one session, one stream, one decider per criterion —
// the echo, the bad-input policies and the summary are its), and what is
// left here is ducheck's routing: notes and the quarantine report go to
// stderr, a strict failure or a read error is exit status 2. Stdout is
// buffered and leaves when stdin goes idle (follow.OnIdle): a producer
// that pauses sees every verdict so far, one that does not costs a write
// per read, not per event.
func runFollow(o follow.Options, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	out := follow.NewOut(stdout)
	defer out.Flush()
	f, err := follow.New(o, out)
	if err != nil {
		return 2, fmt.Errorf("-follow: %w", err)
	}
	defer f.Release() // Finish releases; the early returns below do not
	sc := bufio.NewScanner(follow.OnIdle(stdin, out.Idle))
	for lineNo := 1; sc.Scan(); lineNo++ {
		if bad := f.Line(lineNo, sc.Bytes()); bad != nil {
			if o.Strict {
				return 2, bad
			}
			if !o.SkipBad {
				_ = out.Flush() // a terminal showing both streams keeps them in order
				fmt.Fprintf(stderr, "ducheck: %v (skipped)\n", bad)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 2, err
	}
	return f.Finish(stderr, "ducheck: quarantined").Exit(), nil
}

// runFollowConnect is -follow -connect: instead of monitoring in
// process, raw stdin lines are forwarded to a certd stream endpoint and
// the server's responses — per-event verdict lines, the final verdicts,
// the DONE summary — are printed as they arrive. The server runs the same
// follow core (the options travel as the STREAM hello) and the exit status
// maps the same way: 1 when DONE carries violations, 2 on protocol or
// strict failures. Both directions are buffered and leave by the rule the
// server's echo leaves by: when their input — stdin, the connection — goes
// idle.
func runFollowConnect(addr string, o follow.Options, stdin io.Reader, stdout io.Writer) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 2, fmt.Errorf("-connect: %w", err)
	}
	defer conn.Close()
	w := follow.NewOut(conn)
	fmt.Fprintln(w, o.Hello())
	if err := w.Flush(); err != nil {
		return 2, fmt.Errorf("-connect: %w", err)
	}
	out := follow.NewOut(stdout)
	defer out.Flush()
	r := bufio.NewScanner(follow.OnIdle(conn, out.Idle))
	if !r.Scan() {
		return 2, fmt.Errorf("-connect: no hello response: %v", r.Err())
	}
	if resp := r.Text(); !strings.HasPrefix(resp, "OK ") {
		return 2, fmt.Errorf("-connect: %s", strings.TrimPrefix(resp, "ERR "))
	}

	// Forward stdin verbatim on its own goroutine (the server echoes
	// while we send), then END + half-close so the server finalizes.
	go func() {
		sc := bufio.NewScanner(follow.OnIdle(stdin, w.Idle))
		for sc.Scan() {
			_, _ = w.Write(sc.Bytes())
			_ = w.WriteByte('\n')
		}
		fmt.Fprintln(w, "END")
		_ = w.Flush()
		if hc, ok := conn.(interface{ CloseWrite() error }); ok {
			_ = hc.CloseWrite()
		}
	}()

	var done *follow.Done
	for r.Scan() {
		line := r.Bytes()
		_, _ = out.Write(line)
		_ = out.WriteByte('\n')
		switch {
		case bytes.HasPrefix(line, []byte("DONE ")):
			if d, ok := follow.ParseDone(string(line)); ok {
				done = &d
			}
		case bytes.HasPrefix(line, []byte("ERR ")):
			return 2, fmt.Errorf("-connect: %s", line[len("ERR "):])
		}
	}
	if err := r.Err(); err != nil {
		return 2, fmt.Errorf("-connect: %w", err)
	}
	if done == nil {
		return 2, fmt.Errorf("-connect: stream ended without DONE")
	}
	return done.Exit(), nil
}

// flagWasSet reports whether the named flag was given explicitly on the
// command line (as opposed to holding its default).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// readFile returns the contents of path, or the buffered stdin for "-".
func readFile(path string, stdinSrc []byte) ([]byte, error) {
	if path == "-" {
		return stdinSrc, nil
	}
	return os.ReadFile(path)
}
