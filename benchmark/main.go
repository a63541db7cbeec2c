// Command benchmark is the repository's one benchmark: it drives the
// built certd binaries through their wire protocols (the STREAM TCP
// protocol, the HTTP job API) for the end-to-end numbers, and replays
// each workload's inputs in-process through the layers' public functions
// for the per-layer numbers. See README.md in this directory.
//
// Usage:
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark [-seed N] [-seconds S] [-out results.json]
//	go run ./benchmark -compare a.json b.json
//
// The first form is one run of one workload: the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. The second runs every workload untraced and then traced and
// writes all results to -out. The third judges two such files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"duopacity/internal/checkfarm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print its result as the last line (default: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input: recorded streams, episode and plan seeds")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 1 replays the inputs in-process and prints the per-layer metrics instead")
	out := fs.String("out", filepath.Join(".bench_build", "results.json"), "without -workload: where results go; traces are written next to it")
	buildDir := fs.String("build-dir", ".bench_build", "where the programs under test are built")
	repeat := fs.Int("repeat", 1, "without -workload: untraced runs per workload (-compare judges the spread between them)")
	quick := fs.Bool("quick", false, "1/50-scale workloads (self-test; the numbers mean nothing)")
	compare := fs.Bool("compare", false, "compare two results files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// Children are stopped and reaped on every way out: normal return,
	// error return, and SIGINT/SIGTERM.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer stopAllSystems()
	go func() {
		<-ctx.Done()
		stopAllSystems()
	}()

	suite, err := loadSuite(*quick)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		c, err := readContract(root)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		*seconds = float64(c.RunSeconds)
		if *quick {
			*seconds = 0.5
		}
	}
	// Absolute, because the build runs in the module root, not here.
	absBuild, err := filepath.Abs(*buildDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b := &bench{suite: suite, root: root, binDir: filepath.Join(absBuild, "bin"), traceDir: absBuild, seed: *seed, seconds: *seconds}
	if *name == "" {
		b.traceDir = filepath.Dir(*out)
	}

	if *name != "" {
		w := suite.find(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		res, err := b.runWorkload(ctx, w, *trace == 1)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res.print(stdout)
		line, err := json.Marshal(res.contract())
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	// Everything: each workload untraced, then each traced.
	all := results{Seed: *seed, Seconds: *seconds, Machine: describeMachine()}
	code := 0
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for rep := 0; rep <= *repeat; rep++ {
		traced := rep == *repeat
		for i := range suite.Workloads {
			res, err := b.runWorkload(ctx, &suite.Workloads[i], traced)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			res.print(stdout)
			all.Runs = append(all.Runs, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", *out)
	return code
}

// machine describes where the numbers were taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return m
}

// measured is one metric of one run; N, Q1 and Q3 are set when Value is
// a median (over passes, rounds, paced events or set-ups).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

func fromSample(s sample, unit string) measured {
	return measured{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// result is one run of one workload.
type result struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	order     []string            // print order of Metrics
	TraceFile string              `json:"trace_file,omitempty"`
}

func (r *result) set(name string, m measured) {
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = m
}

// results is the -out file: every run of one invocation.
type results struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Machine machine   `json:"machine"`
	Runs    []*result `json:"runs"`
}

func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s) ==\n", r.Workload, mode)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-44s %14.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d q1=%.4f q3=%.4f", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-44s %14.6f %-6s failed=%d attempted=%d\n", "failure_share", share, "ratio", r.Failed, r.Attempted)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "trace written to %s\n", r.TraceFile)
	}
}

// contract is the result line a single-workload run ends with.
func (r *result) contract() any {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for name, m := range r.Metrics {
		metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// bench is one invocation's fixed context.
type bench struct {
	suite    *suite
	root     string
	binDir   string
	traceDir string
	seed     int64
	seconds  float64
}

// runWorkload sets the system up (several times, for a steady setup_s),
// computes the oracle's expectations, measures, and probes.
func (b *bench) runWorkload(ctx context.Context, w *workload, traced bool) (res *result, err error) {
	res = &result{Workload: w.Name, Traced: traced, Metrics: map[string]measured{}}
	var (
		sys      *system
		followIn *followInput
		farmIn   []checkfarm.JobSpec
		setupS   []float64
	)
	defer func() {
		if sys != nil {
			sys.stop()
		}
	}()
	for i := 0; i < b.suite.Setups; i++ {
		if sys != nil {
			sys.stop()
		}
		start := time.Now()
		if err := buildBinaries(ctx, b.root, b.binDir); err != nil {
			return nil, err
		}
		if w.Follow != nil {
			followIn, err = w.Follow.generate(b.seed, b.suite.Connections)
		} else {
			farmIn, err = w.Farm.generate(b.seed)
		}
		if err != nil {
			return nil, err
		}
		if sys, err = startSystem(b.binDir, b.suite.Workers); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	poll := time.Duration(b.suite.PollMS) * time.Millisecond
	var (
		tr     *tracer
		m      *measurement
		layers = layerValues{}
	)
	if traced {
		tr = newTracer()
	}
	if w.Follow != nil {
		if err := w.Follow.oracleAll(followIn); err != nil {
			return nil, err
		}
		if !traced {
			m, err = measureFollow(sys, w.Follow, followIn, b.seconds)
		} else if res.Attempted, res.Failed, err = traceFollowServer(ctx, sys, b.binDir, w.Follow, followIn, b.seconds, layers); err == nil {
			err = traceFollowLayers(tr, w.Follow, followIn.conns[0], layers)
		}
	} else {
		exps, eerr := w.Farm.expectAll(ctx, farmIn)
		if eerr != nil {
			return nil, eerr
		}
		if !traced {
			m, err = measureFarm(ctx, sys, farmIn, exps, poll, b.seconds)
		} else if res.Attempted, res.Failed, err = traceFarmServer(ctx, sys, farmIn, exps, poll, b.suite.Workers, layers); err == nil {
			err = traceFarmLayers(ctx, tr, w.Farm, farmIn, exps, layers)
		}
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		res.Attempted, res.Failed = m.attempted, m.failed
		res.set("ops_per_s", fromSample(summarize(m.opsPerS), "1/s"))
		res.set("verdict_lag_p50_ms", fromSample(summarize(m.lagMS), "ms"))
		res.set("cpu_us_per_op", measured{Value: 1e6 * m.cpuSeconds / float64(m.ops), Unit: "us"})
		res.set("setup_s", fromSample(summarize(setupS), "s"))
	} else {
		for _, d := range perLayer {
			res.set(d.name, measured{Value: layers[d.name], Unit: d.unit})
		}
		res.TraceFile = filepath.Join(b.traceDir, fmt.Sprintf("trace-%s.json", w.Name))
		if err := tr.write(res.TraceFile, w.Name, b.seed); err != nil {
			return nil, err
		}
	}

	attempted, failed, err := probe(sys, b.seed)
	if err != nil {
		return nil, err
	}
	res.Attempted += attempted
	res.Failed += failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
