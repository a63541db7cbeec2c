// The scale subcommand: goroutines-vs-throughput scaling curves over the
// engine×CM matrix, the one throughput grid of stmbench.
//
//	stmbench scale [-engines tl2,tl2+karma,pdur,...] [-workloads read-heavy,write-hotspot,disjoint]
//	         [-goroutines 1,2,4,8] [-txns 20000] [-repeat 3] [-seed 1] [-json]
//
// Its three workload shapes span the 0.9, 0.1 and 0.5 read mixes, and
// each cell keeps the best of -repeat runs. The grid is a measurement,
// not a gate: performance is gated by the repository benchmark
// (go run ./benchmark).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"duopacity/internal/harness"
)

// defaultScaleEngines is the published grid: every base engine that
// scales (the deferred-update family plus etl), and one CM cell per
// policy spread across the CM-capable engines.
func defaultScaleEngines() []string {
	return []string{"tl2", "norec", "pdur", "dstm", "etl", "tl2+karma", "norec+backoff", "pdur+backoff", "dstm+greedy"}
}

func parseIntList(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad goroutine count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func splitNames(csv string) []string {
	names := strings.Split(csv, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

func runScale(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stmbench scale", flag.ContinueOnError)
	engineList := fs.String("engines", strings.Join(defaultScaleEngines(), ","),
		"comma-separated engine[+cm] names")
	workloadList := fs.String("workloads", strings.Join(harness.ScaleWorkloadNames(), ","),
		"comma-separated workload shapes")
	goroutineList := fs.String("goroutines", "1,2,4,8", "comma-separated goroutine counts")
	txns := fs.Int("txns", 20_000, "transactions per goroutine per cell")
	repeat := fs.Int("repeat", 3, "runs per cell (best throughput kept)")
	seed := fs.Int64("seed", 1, "workload seed")
	asJSON := fs.Bool("json", false, "emit the points as JSON instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gs, err := parseIntList(*goroutineList)
	if err != nil {
		return err
	}
	points, err := harness.ScaleCurves(harness.ScaleConfig{
		Engines:          splitNames(*engineList),
		Workloads:        splitNames(*workloadList),
		Goroutines:       gs,
		TxnsPerGoroutine: *txns,
		Repeat:           *repeat,
		Seed:             *seed,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(points)
	}
	fmt.Fprint(stdout, harness.FormatScaleTable(points))
	return nil
}
