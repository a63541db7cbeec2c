// Scaling curves: goroutines-vs-throughput measurements over the
// engine×CM matrix, the measurement backend of `stmbench scale`.
//
// Three canonical workload shapes cover the regimes the engines
// differentiate on:
//
//   - read-heavy:     many objects, 90% reads — the fast path where
//     invisible reads and zero-allocation read-only commits dominate.
//   - write-hotspot:  four objects, 90% writes — the adversarial
//     contention regime contention management exists for.
//   - disjoint:       per-goroutine object blocks, mixed ops — the
//     access-locality regime where pdur's partitioned certifiers
//     commit in parallel and norec's single certifier serializes.
//
// Curves are measured sequentially (one cell at a time, best of
// Repeat runs) so cells never contend with each other for the machine.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"duopacity/internal/stm/engines"
)

// ScaleWorkloadNames lists the canonical workload shapes in
// presentation order.
func ScaleWorkloadNames() []string {
	return []string{"read-heavy", "write-hotspot", "disjoint"}
}

// ScaleWorkload builds the named canonical workload for one engine and
// goroutine count.
func ScaleWorkload(kind, engine string, goroutines, txns int, seed int64) (Workload, error) {
	w := Workload{
		Engine:           engine,
		Goroutines:       goroutines,
		TxnsPerGoroutine: txns,
		OpsPerTxn:        4,
		Seed:             seed,
	}
	switch kind {
	case "read-heavy":
		w.Objects = 256
		w.ReadFraction = 0.9
	case "write-hotspot":
		w.Objects = 4
		w.ReadFraction = 0.1
	case "disjoint":
		w.Objects = 16 * goroutines
		w.ReadFraction = 0.5
		w.Disjoint = true
	default:
		return Workload{}, fmt.Errorf("scale: unknown workload %q (valid: %s)",
			kind, strings.Join(ScaleWorkloadNames(), ", "))
	}
	return w, nil
}

// ScaleConfig parameterizes a scaling sweep.
type ScaleConfig struct {
	Engines    []string // engine[+cm] names
	Workloads  []string // subset of ScaleWorkloadNames (default: all)
	Goroutines []int    // default 1, 2, 4, 8
	// TxnsPerGoroutine per cell (default 20_000).
	TxnsPerGoroutine int
	// Repeat runs per cell; the best throughput is kept (default 3).
	Repeat int
	Seed   int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Workloads) == 0 {
		c.Workloads = ScaleWorkloadNames()
	}
	if len(c.Goroutines) == 0 {
		c.Goroutines = []int{1, 2, 4, 8}
	}
	if c.TxnsPerGoroutine == 0 {
		c.TxnsPerGoroutine = 20_000
	}
	if c.Repeat == 0 {
		c.Repeat = 3
	}
	return c
}

// ScalePoint is one measured cell of the sweep.
type ScalePoint struct {
	Engine     string  `json:"engine"`
	Workload   string  `json:"workload"`
	Goroutines int     `json:"goroutines"`
	TxnPerSec  float64 `json:"txn_per_sec"`
	AbortRate  float64 `json:"abort_rate"`
	Failed     int64   `json:"failed,omitempty"`
}

// ScaleCurves measures the full engines×workloads×goroutines grid and
// returns the points in deterministic (engine, workload, goroutines)
// order. Invalid engine or workload names fail before any measurement.
func ScaleCurves(cfg ScaleConfig) ([]ScalePoint, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Engines) == 0 {
		return nil, fmt.Errorf("scale: no engines")
	}
	// Validate the whole grid up front: engine names through the shared
	// parser, workload names through ScaleWorkload.
	for _, e := range cfg.Engines {
		if _, _, err := engines.Parse(e); err != nil {
			return nil, err
		}
		for _, wl := range cfg.Workloads {
			if _, err := ScaleWorkload(wl, e, 1, 1, 0); err != nil {
				return nil, err
			}
		}
	}
	var points []ScalePoint
	for _, e := range cfg.Engines {
		for _, wl := range cfg.Workloads {
			for _, g := range cfg.Goroutines {
				w, err := ScaleWorkload(wl, e, g, cfg.TxnsPerGoroutine, cfg.Seed)
				if err != nil {
					return nil, err
				}
				pt := ScalePoint{Engine: e, Workload: wl, Goroutines: g}
				for r := 0; r < cfg.Repeat; r++ {
					stats, err := Run(w)
					if err != nil {
						return nil, fmt.Errorf("scale: %s/%s/g%d: %w", e, wl, g, err)
					}
					if tps := stats.TxnPerSec(); tps > pt.TxnPerSec {
						pt.TxnPerSec = tps
						pt.AbortRate = stats.AbortRate()
						pt.Failed = stats.Failed
					}
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// findScalePoint returns the point for the given cell, or nil.
func findScalePoint(points []ScalePoint, engine, workload string, goroutines int) *ScalePoint {
	for i := range points {
		p := &points[i]
		if p.Engine == engine && p.Workload == workload && p.Goroutines == goroutines {
			return p
		}
	}
	return nil
}

// FormatScaleTable renders the points as one table per workload:
// engines down, goroutine counts across, txn/s in the cells.
func FormatScaleTable(points []ScalePoint) string {
	byWorkload := map[string][]ScalePoint{}
	var workloads []string
	for _, p := range points {
		if _, ok := byWorkload[p.Workload]; !ok {
			workloads = append(workloads, p.Workload)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	var b strings.Builder
	for _, wl := range workloads {
		pts := byWorkload[wl]
		var engs []string
		var gs []int
		seenE := map[string]bool{}
		seenG := map[int]bool{}
		for _, p := range pts {
			if !seenE[p.Engine] {
				seenE[p.Engine] = true
				engs = append(engs, p.Engine)
			}
			if !seenG[p.Goroutines] {
				seenG[p.Goroutines] = true
				gs = append(gs, p.Goroutines)
			}
		}
		sort.Ints(gs)
		fmt.Fprintf(&b, "workload %s (txn/s, best-of-repeat)\n", wl)
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "engine")
		for _, g := range gs {
			fmt.Fprintf(tw, "\tg=%d", g)
		}
		fmt.Fprintln(tw)
		for _, e := range engs {
			fmt.Fprint(tw, e)
			for _, g := range gs {
				if p := findScalePoint(pts, e, wl, g); p != nil {
					fmt.Fprintf(tw, "\t%.0f", p.TxnPerSec)
				} else {
					fmt.Fprint(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		b.WriteString("\n")
	}
	return b.String()
}
