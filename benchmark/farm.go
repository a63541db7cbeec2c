package main

import (
	"context"
	"time"

	"duopacity"
	"duopacity/internal/certd"
	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
)

// expectation is the in-process answer for one job: the report text the
// coordinator must serve, and how the job's operations are to be counted.
type expectation struct {
	formatted string
	ops       int // episodes or schedules
	attempted int // episodes or plans
	failed    int
	// shardSeconds is each shard's in-process RunShard time, in shard order.
	shardSeconds []float64
	results      []*checkfarm.ShardResult
}

// expect computes a job in-process: every shard through RunShard, folded
// by FoldJob, rendered by FormatJobReport — the farm's own byte-identity
// contract makes that text the oracle for the served report.
func (f *farmSpec) expect(ctx context.Context, spec checkfarm.JobSpec) (*expectation, error) {
	n := spec.NumShards()
	results := make([]*checkfarm.ShardResult, n)
	exp := &expectation{shardSeconds: make([]float64, n), results: results}
	err := onAllCores(n, func(i int) error {
		start := time.Now()
		res, err := spec.RunShard(ctx, i)
		exp.shardSeconds[i] = time.Since(start).Seconds()
		results[i] = &res
		return err
	})
	if err != nil {
		return nil, err
	}
	rep, err := checkfarm.FoldJob(ctx, spec, results, 1)
	if err != nil {
		return nil, err
	}
	exp.formatted = checkfarm.FormatJobReport(spec, rep)
	switch spec.Kind {
	case checkfarm.KindCertify:
		st := rep.Certify
		exp.attempted = st.Episodes + st.Skipped
		exp.ops = exp.attempted
		// An episode fails when it was skipped, degraded or left undecided
		// by any criterion, or when a deferred-update engine's history is
		// rejected by du-opacity (the paper's claim, and every engine of
		// the certify workload is deferred-update).
		undecided := 0
		for _, c := range spec.Certify.Criteria {
			if st.Undecided[c] > undecided {
				undecided = st.Undecided[c]
			}
		}
		exp.failed = st.Skipped + undecided
		if !f.inPlace(spec.Certify.Config.Engine) {
			exp.failed += st.Rejected[duopacity.DUOpacity]
		}
	case checkfarm.KindExplore:
		exp.attempted = len(rep.Explore)
		violations := 0
		for _, r := range rep.Explore {
			exp.ops += r.Schedules
			violations += r.Violations
			switch {
			case r.DegradedReason != "", r.Undecided > 0:
				exp.failed++
			case r.Outcome == harness.ViolationFound && !f.inPlace(spec.Explore.Engine):
				exp.failed++
			}
		}
		// An in-place engine that never violates across the whole plan
		// set means the prefix-cut path was not exercised at all.
		if f.inPlace(spec.Explore.Engine) && violations == 0 {
			exp.failed = exp.attempted
		}
	}
	if exp.failed > exp.attempted {
		exp.failed = exp.attempted
	}
	return exp, nil
}

func (f *farmSpec) expectAll(ctx context.Context, specs []checkfarm.JobSpec) ([]*expectation, error) {
	exps := make([]*expectation, len(specs))
	for i, spec := range specs {
		e, err := f.expect(ctx, spec)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// round is one closed-loop sweep: every job submitted after the previous
// one's report was read.
type round struct {
	wall      time.Duration
	ops       int
	attempted int
	failed    int
	jobMS     []float64 // submit -> report read, per job
	shards    int
}

func runRound(ctx context.Context, c *certd.Client, specs []checkfarm.JobSpec, exps []*expectation, poll time.Duration) (round, error) {
	var r round
	start := time.Now()
	for i, spec := range specs {
		t0 := time.Now()
		id, shards, err := c.Submit(ctx, spec)
		if err != nil {
			return r, err
		}
		st, err := c.WaitJob(ctx, id, poll)
		if err != nil {
			return r, err
		}
		r.jobMS = append(r.jobMS, float64(time.Since(t0))/float64(time.Millisecond))
		r.shards += shards
		exp := exps[i]
		r.ops += exp.ops
		r.attempted += exp.attempted
		if st.State != certd.JobDone || st.Degraded != 0 || st.Formatted != exp.formatted {
			r.failed += exp.attempted // the served report is not the in-process fold's
		} else {
			r.failed += exp.failed
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

// measureFarm runs closed-loop rounds until the time is used.
func measureFarm(ctx context.Context, sys *system, specs []checkfarm.JobSpec, exps []*expectation, poll time.Duration, seconds float64) (*measurement, error) {
	m := &measurement{}
	if _, err := runRound(ctx, sys.client, specs, exps, poll); err != nil { // warm-up, discarded
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	cpu0, err := sys.cpu(true)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		r, err := runRound(ctx, sys.client, specs, exps, poll)
		if err != nil {
			return nil, err
		}
		m.opsPerS = append(m.opsPerS, float64(r.ops)/r.wall.Seconds())
		m.lagMS = append(m.lagMS, sum(r.jobMS)/float64(len(r.jobMS)))
		m.ops += r.ops
		m.attempted += r.attempted
		m.failed += r.failed
		if left := budget - time.Since(start); len(m.opsPerS) >= 3 && left < r.wall/2 {
			break
		}
	}
	cpu1, err := sys.cpu(true)
	if err != nil {
		return nil, err
	}
	m.cpuSeconds = cpu1 - cpu0
	return m, nil
}
