package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// contractFile is BENCHMARK.json, as far as the benchmark itself reads it.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(root string) (*contractFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// side is one file's view of one workload x metric: a value per run, or,
// from a single run, that run's own median and quartiles.
type side struct {
	values []float64
	sample sample
	failed int
}

func (r *results) side(workload, metric string) side {
	var s side
	var single measured
	for _, run := range r.Runs {
		if run.Workload != workload || run.Traced {
			continue
		}
		if m, ok := run.Metrics[metric]; ok {
			s.values = append(s.values, m.Value)
			single = m
		}
		s.failed += run.Failed
	}
	s.sample = summarize(s.values)
	if len(s.values) == 1 && single.N > 1 {
		s.sample = sample{Median: single.Value, Q1: single.Q1, Q3: single.Q3, N: single.N}
	}
	return s
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound, and whether the second file is ok, regressed or
// unresolved (the spread is wider than the bound, so the bound cannot be
// judged). It exits 1 when anything regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	root, err := findRoot()
	var c *contractFile
	if err == nil {
		c, err = readContract(root)
	}
	var a, b *results
	if err == nil {
		a, err = readResults(pathA)
	}
	if err == nil {
		b, err = readResults(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tchange\tbound\tspread\tverdict")
	code := 0
	for _, w := range c.Workloads {
		var failedA, failedB int
		for _, m := range c.EndToEnd {
			sa, sb := a.side(w.Name, m.Name), b.side(w.Name, m.Name)
			failedA, failedB = sa.failed, sb.failed
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			change := (sb.sample.Median - sa.sample.Median) / sa.sample.Median
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			spread := sa.sample.spread()
			if s := sb.sample.spread(); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter(sa.values, sb.values, m.Better == "higher"):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				w.Name, m.Name, m.Unit, sa.sample.Median, sb.sample.Median, 100*change, 100*m.Bound, 100*spread, verdict)
		}
		verdict := "ok"
		if failedB > failedA {
			verdict = "regressed"
			code = 1
		}
		fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\tany\t\t%s\n", w.Name, failedA, failedB, verdict)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return code
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, higher bool) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}
