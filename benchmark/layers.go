package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"duopacity"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
)

// metricDef names a metric and its unit. perLayer is the complete list a
// traced run prints; a layer the workload does not pass through reads 0.
type metricDef struct{ name, unit string }

var criterionAlias = map[duopacity.Criterion]string{
	duopacity.DUOpacity:             "du",
	duopacity.Opacity:               "opacity",
	duopacity.FinalStateOpacity:     "finalstate",
	duopacity.TMS2:                  "tms2",
	duopacity.RCO:                   "rco",
	duopacity.StrictSerializability: "strictser",
	duopacity.Serializability:       "ser",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"histio.parse_ns_per_event", "ns"},
		{"histio.parse_allocs_per_event", "count"},
		{"histio.format_ns_per_event", "ns"},
		{"history.stream_append_ns_per_event", "ns"},
		{"history.stream_append_allocs_per_event", "count"},
		{"history.stream_append_growth", "ratio"},
		{"history.from_events_us_per_history", "us"},
		{"spec.monitor_append_ns_per_event", "ns"},
	}
	for _, c := range []string{"du", "tms2", "rco", "opacity", "finalstate"} {
		defs = append(defs, metricDef{"spec.monitor_append_ns_per_event." + c, "ns"})
	}
	defs = append(defs,
		metricDef{"spec.monitor_allocs_per_event", "count"},
		metricDef{"spec.multi_criteria_factor", "ratio"},
		metricDef{"spec.monitor_searches_per_kevent", "count"},
		metricDef{"spec.monitor_fast_hit_share", "ratio"},
		metricDef{"spec.monitor_slow_append_share", "ratio"},
		metricDef{"spec.monitor_append_us_max", "us"},
		metricDef{"spec.monitor_growth", "ratio"},
		metricDef{"spec.monitor_live_txns_end", "count"},
		metricDef{"spec.monitor_retired_txns", "count"},
	)
	for _, c := range []string{"du", "opacity", "finalstate", "tms2", "rco", "strictser", "ser"} {
		defs = append(defs, metricDef{"spec.check_us_per_history." + c, "us"})
	}
	defs = append(defs, metricDef{"spec.monitor_new_ns", "ns"})
	for _, e := range []string{"gl", "tl2", "norec", "pdur", "dstm", "ple"} {
		defs = append(defs, metricDef{"stm.txn_ns." + e, "ns"})
	}
	return append(defs,
		metricDef{"recorder.capture_ns_per_event", "ns"},
		metricDef{"harness.episode_run_us", "us"},
		metricDef{"harness.episode_check_share", "ratio"},
		metricDef{"harness.explore_steps_per_s", "1/s"},
		metricDef{"harness.explore_replays_per_schedule", "ratio"},
		metricDef{"harness.explore_pruned_share", "ratio"},
		metricDef{"checkfarm.run_shard_us_p50", "us"},
		metricDef{"checkfarm.run_shard_us_p99", "us"},
		metricDef{"checkfarm.fold_ms", "ms"},
		metricDef{"checkfarm.result_bytes_per_shard", "bytes"},
		metricDef{"certd.wire_ns_per_event", "ns"},
		metricDef{"certd.echo_ns_per_event", "ns"},
		metricDef{"certd.stalls_per_kevent", "count"},
		metricDef{"certd.avg_append_ns", "ns"},
		metricDef{"certd.verdict_lag_p99_ms", "ms"},
		metricDef{"certd.verdict_lag_max_ms", "ms"},
		metricDef{"certd.generator_lateness_p99_ms", "ms"},
		metricDef{"certd.lease_overhead_share", "ratio"},
		metricDef{"certd.leases_expired", "count"},
		metricDef{"certd.shards_requeued", "count"},
		metricDef{"certd.peak_rss_mb", "MB"},
		metricDef{"certd.worker_cpu_ms_per_shard", "ms"},
		metricDef{"ducheck.follow_ns_per_event", "ns"},
		metricDef{"benchmark.trace_overhead_share", "ratio"},
	)
}()

// layerValues collects a traced run's numbers by metric name.
type layerValues map[string]float64

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// blockEvents is the replay's timing grain: spans cover this many events.
const blockEvents = 1000

// replayPipeline pushes streams through parse and monitor append in the
// order the server does, one span per layer call and block. It returns
// the wall time of the whole replay; tr may be nil.
func replayPipeline(tr *tracer, f *followSpec, streams []*stream, pass int) (time.Duration, error) {
	start := time.Now()
	root := tr.begin("replay", -1, pass)
	for _, s := range streams {
		monitors := make([]*duopacity.Monitor, len(f.criteria))
		for i, c := range f.criteria {
			m, err := duopacity.NewMonitor(c, duopacity.WithRetirement(f.Retire))
			if err != nil {
				return 0, err
			}
			monitors[i] = m
		}
		sid := tr.begin("stream", root, pass)
		parsed := make([]duopacity.Event, 0, blockEvents)
		for from := 0; from < len(s.events); from += blockEvents {
			to := from + blockEvents
			if to > len(s.events) {
				to = len(s.events)
			}
			bid := tr.begin("block", sid, pass)
			id := tr.begin("histio.parse", bid, pass)
			parsed = parsed[:0]
			for k := from; k < to; k++ {
				line := s.lines(k, k+1)
				evs, err := histio.ParseEvents(string(line[:len(line)-1]))
				if err != nil {
					return 0, err
				}
				parsed = append(parsed, evs...)
			}
			tr.end(id)
			for i, m := range monitors {
				id := tr.begin("spec.monitor."+criterionAlias[f.criteria[i]], bid, pass)
				for _, e := range parsed {
					if _, err := m.Append(e); err != nil {
						return 0, err
					}
				}
				tr.end(id)
			}
			tr.end(bid)
		}
		tr.end(sid)
	}
	tr.end(root)
	return time.Since(start), nil
}

// spanNS sums the duration of every span with the given name.
func (t *tracer) spanNS(name string) float64 {
	total := int64(0)
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return float64(total)
}

// deciles accumulates time per tenth of a stream, over many streams.
type deciles [10]time.Duration

func (d *deciles) growth() float64 {
	if d[0] == 0 {
		return 0
	}
	return float64(d[9]) / float64(d[0])
}

// traceFollowLayers measures the layers a follow workload passes through
// on one connection's streams, in-process.
func traceFollowLayers(tr *tracer, f *followSpec, streams []*stream, out layerValues) error {
	events := 0
	for _, s := range streams {
		events += len(s.events)
	}
	n := float64(events)

	// The same replay without and with spans: the difference is what tracing costs.
	plain, err := replayPipeline(nil, f, streams, 0)
	if err != nil {
		return err
	}
	traced, err := replayPipeline(tr, f, streams, 1)
	if err != nil {
		return err
	}
	out["benchmark.trace_overhead_share"] = float64(traced-plain) / float64(plain)
	out["histio.parse_ns_per_event"] = tr.spanNS("histio.parse") / n
	all := 0.0
	for _, c := range f.criteria {
		ns := tr.spanNS("spec.monitor."+criterionAlias[c]) / n
		out["spec.monitor_append_ns_per_event."+criterionAlias[c]] = ns
		all += ns
	}
	out["spec.monitor_append_ns_per_event"] = all
	if du := out["spec.monitor_append_ns_per_event.du"]; du > 0 {
		out["spec.multi_criteria_factor"] = all / du
	}

	// histio alone: allocations of parse, cost of format.
	m0 := mallocs()
	for _, s := range streams {
		for k := range s.events {
			line := s.lines(k, k+1)
			if _, err := histio.ParseEvents(string(line[:len(line)-1])); err != nil {
				return err
			}
		}
	}
	out["histio.parse_allocs_per_event"] = float64(mallocs()-m0) / n
	out["histio.format_ns_per_event"] = float64(tr.timed("histio.format", -1, 2, func() {
		for _, s := range streams {
			for _, e := range s.events {
				_ = histio.FormatEvent(e)
			}
		}
	})) / n

	// history.Stream alone.
	var dec deciles
	id := tr.begin("history.stream", -1, 2)
	m0 = mallocs()
	start := time.Now()
	for _, s := range streams {
		st := duopacity.NewStream()
		for d := 0; d < 10; d++ {
			t := time.Now()
			for _, e := range s.events[d*len(s.events)/10 : (d+1)*len(s.events)/10] {
				if err := st.Append(e); err != nil {
					return err
				}
			}
			dec[d] += time.Since(t)
		}
	}
	out["history.stream_append_ns_per_event"] = float64(time.Since(start)) / n
	out["history.stream_append_allocs_per_event"] = float64(mallocs()-m0) / n
	out["history.stream_append_growth"] = dec.growth()
	tr.end(id)

	// The first criterion's monitor with every append timed: the search path's shape.
	var (
		mdec                      deciles
		total, slow, longest      time.Duration
		searches, fastHits        int
		live, retired, newSamples int
		newNS                     time.Duration
	)
	id = tr.begin("spec.monitor.timed", -1, 2)
	m0 = mallocs()
	for _, s := range streams {
		m, err := duopacity.NewMonitor(f.criteria[0], duopacity.WithRetirement(f.Retire))
		if err != nil {
			return err
		}
		for k, e := range s.events {
			t := time.Now()
			if _, err := m.Append(e); err != nil {
				return err
			}
			d := time.Since(t)
			total += d
			if d > 100*time.Microsecond {
				slow += d
			}
			if d > longest {
				longest = d
			}
			mdec[k*10/len(s.events)] += d
		}
		se, fh := m.Stats()
		searches += se
		fastHits += fh
		live, retired = m.LiveTxns(), retired+m.Retired()
	}
	out["spec.monitor_allocs_per_event"] = float64(mallocs()-m0) / n
	tr.end(id)
	out["spec.monitor_searches_per_kevent"] = 1000 * float64(searches) / n
	if searches+fastHits > 0 {
		out["spec.monitor_fast_hit_share"] = float64(fastHits) / float64(searches+fastHits)
	}
	out["spec.monitor_slow_append_share"] = float64(slow) / float64(total)
	out["spec.monitor_append_us_max"] = float64(longest) / float64(time.Microsecond)
	out["spec.monitor_growth"] = mdec.growth()
	out["spec.monitor_live_txns_end"] = float64(live)
	out["spec.monitor_retired_txns"] = float64(retired)

	for _, s := range streams {
		for rep := 0; rep < 200 && newSamples < 2000; rep++ {
			newNS += timeMonitorNew(f.criteria[0], f.Retire, s.events[0])
			newSamples++
		}
	}
	out["spec.monitor_new_ns"] = float64(newNS) / float64(newSamples)
	return traceEngine(tr, f.Record, out)
}

// timeMonitorNew times constructing a monitor and feeding it one event.
func timeMonitorNew(c duopacity.Criterion, retire int, first duopacity.Event) time.Duration {
	t := time.Now()
	var opts []duopacity.CheckOption
	if retire > 0 {
		opts = append(opts, duopacity.WithRetirement(retire))
	}
	m, err := duopacity.NewMonitor(c, opts...)
	if err == nil {
		_, _ = m.Append(first) // a well-formed first event cannot be rejected
	}
	return time.Since(t)
}

// traceEngine times the engine alone and under the recorder, on one
// goroutine: stm.txn_ns.<engine> and what capture adds per event.
func traceEngine(tr *tracer, shape harness.Workload, out layerValues) error {
	w := shape
	w.Goroutines, w.TxnsPerGoroutine, w.Seed = 1, 20000, 1
	var bare, recorded []float64
	for rep := 0; rep < 3; rep++ {
		id := tr.begin("stm.run", -1, 3)
		st, err := harness.Run(w)
		tr.end(id)
		if err != nil {
			return err
		}
		bare = append(bare, float64(st.Duration)/float64(st.Commits))
		id = tr.begin("recorder.run_recorded", -1, 3)
		h, rst, err := harness.RunRecorded(w)
		tr.end(id)
		if err != nil {
			return err
		}
		recorded = append(recorded, float64(rst.Duration-st.Duration)/float64(h.Len()))
	}
	if _, known := layerUnit["stm.txn_ns."+w.Engine]; !known {
		return fmt.Errorf("engine %q has no stm.txn_ns metric", w.Engine)
	}
	out["stm.txn_ns."+w.Engine] = median(bare)
	// A farm workload calls this once per engine and averages the sum.
	out["recorder.capture_ns_per_event"] += median(recorded)
	return nil
}

var layerUnit = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// traceFollowServer measures what only the running server can show: the
// wire and echo cost per event, backpressure, and the paced phase's tail.
func traceFollowServer(ctx context.Context, sys *system, binDir string, f *followSpec, in *followInput, seconds float64, out layerValues) (attempted, failed int, err error) {
	conns := float64(len(in.conns))
	s0, err := sys.client.Stats(ctx)
	if err != nil {
		return 0, 0, err
	}
	echo, err := runPass(sys.streamAddr, f, in, false, nil)
	if err != nil {
		return 0, 0, err
	}
	s1, err := sys.client.Stats(ctx)
	if err != nil {
		return 0, 0, err
	}
	quiet, err := runPass(sys.streamAddr, f, in, true, nil)
	if err != nil {
		return 0, 0, err
	}
	pacedFor := time.Duration(seconds * (1 - f.SaturationShare) * float64(time.Second))
	paced, err := runPass(sys.streamAddr, f, in, false, &pacing{rate: f.PacedEventsPerS, deadline: time.Now().Add(pacedFor)})
	if err != nil {
		return 0, 0, err
	}
	attempted = echo.events + quiet.events + paced.events
	failed = echo.failed + quiet.failed + paced.failed

	echoNS := float64(echo.wall) * conns / float64(echo.events)
	out["certd.echo_ns_per_event"] = echoNS - float64(quiet.wall)*conns/float64(quiet.events)
	if ev := float64(s1.Streams.Events - s0.Streams.Events); ev > 0 {
		out["certd.stalls_per_kevent"] = 1000 * float64(s1.Streams.Stalls-s0.Streams.Stalls) / ev
		// /statsz serves the lifetime mean; two snapshots give the pass's own.
		out["certd.avg_append_ns"] = float64(s1.Streams.AvgAppendNanos*s1.Streams.Events-s0.Streams.AvgAppendNanos*s0.Streams.Events) / ev
	}
	out["certd.verdict_lag_p99_ms"] = percentile(paced.lagMS, 99)
	out["certd.verdict_lag_max_ms"] = percentile(paced.lagMS, 100)
	out["certd.generator_lateness_p99_ms"] = percentile(paced.lateMS, 99)
	if out["certd.peak_rss_mb"], err = peakRSSMB(sys.server.pid()); err != nil {
		return 0, 0, err
	}

	// The wire-free twin: the same lines through ducheck -follow's stdin.
	streams := in.conns[0]
	if len(streams) > 8 {
		streams = streams[:8]
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	defer null.Close()
	var wall time.Duration
	events := 0
	for _, s := range streams {
		cmd := exec.CommandContext(ctx, filepath.Join(binDir, "ducheck"), "-follow",
			"-criteria", strings.Join(f.Criteria, ","), "-retire", fmt.Sprint(f.Retire), "-")
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return 0, 0, err
		}
		cmd.Stdout = null
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		_, werr := stdin.Write(s.wire)
		stdin.Close()
		if err := cmd.Wait(); err != nil || werr != nil {
			return 0, 0, fmt.Errorf("ducheck -follow: %v %v", err, werr)
		}
		wall += time.Since(start)
		events += len(s.events)
	}
	out["ducheck.follow_ns_per_event"] = float64(wall) / float64(events)
	out["certd.wire_ns_per_event"] = echoNS - out["ducheck.follow_ns_per_event"]
	return attempted, failed, nil
}
