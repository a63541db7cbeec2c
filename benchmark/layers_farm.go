package main

import (
	"context"
	"encoding/json"
	"time"

	"duopacity"
	"duopacity/internal/certd"
	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
)

// sampleEvery is the share of a farm job's shards the traced run replays
// in-process: every 8th episode, every 4th plan.
func sampleEvery(kind checkfarm.ShardKind) int {
	if kind == checkfarm.KindExplore {
		return 4
	}
	return 8
}

func microseconds(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// farmTrace accumulates what the sampled shards of a farm workload cost,
// layer by layer.
type farmTrace struct {
	tr *tracer

	shardUS, episodeRunUS, fromEventsUS []float64
	checkUS                             map[string][]float64
	episodeTotal, episodeChecks         time.Duration

	steps, replays, schedules, pruned float64
	exploreTime                       time.Duration

	monitorNew     time.Duration
	monitorSamples int
}

// episode certifies episode i as a worker would, then times the layers
// under it again on the recorded history.
func (ft *farmTrace) episode(ctx context.Context, job *checkfarm.CertifyJob, i, parent, pass int) error {
	var (
		r   harness.EpisodeReport
		err error
	)
	total := ft.tr.timed("harness.certify_episode", parent, pass, func() {
		r, err = harness.CertifyEpisodeCtx(ctx, job.Config, i, job.Criteria)
	})
	if err != nil || r.History == nil || r.Skipped {
		return err
	}
	evs := r.History.Events()
	ft.fromEventsUS = append(ft.fromEventsUS, microseconds(ft.tr.timed("history.from_events", parent, pass, func() {
		_, err = duopacity.FromEvents(evs)
	})))
	if err != nil {
		return err
	}
	checks := time.Duration(0)
	for _, c := range job.Criteria {
		alias := criterionAlias[c]
		d := ft.tr.timed("spec.check."+alias, parent, pass, func() {
			_ = duopacity.Check(r.History, c, duopacity.WithNodeLimit(job.Config.NodeLimit))
		})
		checks += d
		ft.checkUS[alias] = append(ft.checkUS[alias], microseconds(d))
	}
	if checks > total {
		checks = total
	}
	ft.episodeTotal += total
	ft.episodeChecks += checks
	ft.episodeRunUS = append(ft.episodeRunUS, microseconds(total-checks))
	ft.newMonitor(evs[0])
	return nil
}

// plan explores plan i as a worker would and keeps the report's counts.
func (ft *farmTrace) plan(ctx context.Context, f *farmSpec, job *checkfarm.ExploreJob, i, parent, pass int) error {
	p, err := job.Plans[i].Plan()
	if err != nil {
		return err
	}
	var r harness.ExploreReport
	ft.exploreTime += ft.tr.timed("harness.explore_plan", parent, pass, func() {
		r, err = harness.ExplorePlanCtx(ctx, job.Engine, p, job.Config)
	})
	if err != nil {
		return err
	}
	ft.steps += float64(r.Steps)
	ft.replays += float64(r.Replays)
	ft.schedules += float64(r.Schedules)
	ft.pruned += float64(r.SleepPruned + r.SymmetryPruned + r.PrefixCut)
	// Any first event of this plan shape will do for the monitor's construction cost.
	shape := f.PlanShape
	shape.Engine, shape.Seed = job.Engine, int64(i)
	if h, _, err := harness.RunInterleaved(shape); err == nil && h.Len() > 0 {
		ft.newMonitor(h.At(0))
	}
	return nil
}

func (ft *farmTrace) newMonitor(first duopacity.Event) {
	for rep := 0; rep < 50; rep++ {
		ft.monitorNew += timeMonitorNew(duopacity.DUOpacity, 0, first)
		ft.monitorSamples++
	}
}

func (ft *farmTrace) report(out layerValues) {
	out["checkfarm.run_shard_us_p50"] = median(ft.shardUS)
	out["checkfarm.run_shard_us_p99"] = percentile(ft.shardUS, 99)
	if len(ft.episodeRunUS) > 0 {
		out["harness.episode_run_us"] = median(ft.episodeRunUS)
		out["harness.episode_check_share"] = float64(ft.episodeChecks) / float64(ft.episodeTotal)
		out["history.from_events_us_per_history"] = median(ft.fromEventsUS)
		for alias, us := range ft.checkUS {
			out["spec.check_us_per_history."+alias] = median(us)
		}
	}
	if ft.exploreTime > 0 {
		out["harness.explore_steps_per_s"] = ft.steps / ft.exploreTime.Seconds()
		if ft.schedules > 0 {
			out["harness.explore_replays_per_schedule"] = ft.replays / ft.schedules
		}
		if ft.pruned+ft.replays > 0 {
			out["harness.explore_pruned_share"] = ft.pruned / (ft.pruned + ft.replays)
		}
	}
	if ft.monitorSamples > 0 {
		out["spec.monitor_new_ns"] = float64(ft.monitorNew) / float64(ft.monitorSamples)
	}
}

// traceFarmLayers replays sampled shards in-process, one span per layer
// call, and measures the layers below checkfarm on the same shards.
func traceFarmLayers(ctx context.Context, tr *tracer, f *farmSpec, specs []checkfarm.JobSpec, exps []*expectation, out layerValues) error {
	ft := &farmTrace{tr: tr, checkUS: map[string][]float64{}}
	var plain, traced time.Duration
	for j, spec := range specs {
		every := sampleEvery(spec.Kind)
		// RunShard over the sample without and with spans: what tracing costs.
		for _, t := range []*tracer{nil, tr} {
			start := time.Now()
			for i := 0; i < spec.NumShards(); i += every {
				var err error
				d := t.timed("checkfarm.run_shard", -1, j, func() { _, err = spec.RunShard(ctx, i) })
				if err != nil {
					return err
				}
				if t != nil {
					ft.shardUS = append(ft.shardUS, microseconds(d))
				}
			}
			if t == nil {
				plain += time.Since(start)
			} else {
				traced += time.Since(start)
			}
		}
		for i := 0; i < spec.NumShards(); i += every {
			sid := tr.begin("shard", -1, j)
			var err error
			if spec.Kind == checkfarm.KindCertify {
				err = ft.episode(ctx, spec.Certify, i, sid, j)
			} else {
				err = ft.plan(ctx, f, spec.Explore, i, sid, j)
			}
			tr.end(sid)
			if err != nil {
				return err
			}
		}

		results := exps[j].results
		var err error
		out["checkfarm.fold_ms"] += float64(tr.timed("checkfarm.fold", -1, j, func() {
			var rep *checkfarm.JobReport
			if rep, err = checkfarm.FoldJob(ctx, spec, results, 1); err == nil {
				_ = checkfarm.FormatJobReport(spec, rep)
			}
		})) / float64(time.Millisecond)
		if err != nil {
			return err
		}
		bytes := 0
		for _, r := range results {
			raw, err := json.Marshal(r)
			if err != nil {
				return err
			}
			bytes += len(raw)
		}
		out["checkfarm.result_bytes_per_shard"] += float64(bytes) / float64(len(results)) / float64(len(specs))

		shape := f.PlanShape
		if spec.Kind == checkfarm.KindCertify {
			shape = spec.Certify.Config.Workload
		} else {
			shape.Engine = spec.Explore.Engine
		}
		if err := traceEngine(tr, shape, out); err != nil {
			return err
		}
	}
	out["recorder.capture_ns_per_event"] /= float64(len(specs))
	out["benchmark.trace_overhead_share"] = float64(traced-plain) / float64(plain)
	ft.report(out)
	return nil
}

// traceFarmServer runs one round through the real coordinator and
// workers and sets it against the in-process shard times.
func traceFarmServer(ctx context.Context, sys *system, specs []checkfarm.JobSpec, exps []*expectation, poll time.Duration, workers int, out layerValues) (attempted, failed int, err error) {
	var s0, s1 *certd.StatsSnapshot
	if s0, err = sys.client.Stats(ctx); err != nil {
		return 0, 0, err
	}
	all0, err := sys.cpu(true)
	if err != nil {
		return 0, 0, err
	}
	srv0, _ := sys.cpu(false)
	r, err := runRound(ctx, sys.client, specs, exps, poll)
	if err != nil {
		return 0, 0, err
	}
	all1, err := sys.cpu(true)
	if err != nil {
		return 0, 0, err
	}
	srv1, _ := sys.cpu(false)
	if s1, err = sys.client.Stats(ctx); err != nil {
		return 0, 0, err
	}
	inProcess := 0.0
	for _, e := range exps {
		inProcess += sum(e.shardSeconds)
	}
	out["certd.lease_overhead_share"] = 1 - inProcess/(float64(workers)*sum(r.jobMS)/1000)
	out["certd.leases_expired"] = float64(s1.Jobs.LeasesExpired - s0.Jobs.LeasesExpired)
	out["certd.shards_requeued"] = float64(s1.Jobs.ShardsRequeued - s0.Jobs.ShardsRequeued)
	out["certd.worker_cpu_ms_per_shard"] = 1000 * ((all1 - all0) - (srv1 - srv0)) / float64(r.shards)
	if out["certd.peak_rss_mb"], err = peakRSSMB(sys.server.pid()); err != nil {
		return 0, 0, err
	}
	return r.attempted, r.failed, nil
}
