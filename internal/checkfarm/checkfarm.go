// Package checkfarm parallelizes the repository's certification pipeline:
// a JobSpec describes a certification (episodes of harness.Certify), an
// exhaustive exploration of plans (harness.ExplorePlanCtx), a batch of
// histories to check, or a differential soak, as independent shards. Run
// computes the shards over a bounded local worker pool with context
// cancellation and folds them in shard order, so a run is byte-identical
// at every worker count; internal/certd runs the same shard function and
// the same fold across machines.
//
// The farm exists because the paper's claims are universally quantified:
// du-opacity (Definition 3) must hold for *every* history an engine can
// produce, so evidence scales with how many histories — and, since the
// explorer, how many whole schedule spaces — can be checked per second.
// The kinds cover the quantifier from different sides: certify samples
// recorded episodes per criterion; explore enumerates every interleaving
// of the deterministic stepper's schedule space for small plans and
// returns per-plan proofs over that space or pinned refutations; check
// batch-checks given histories; and the differential soak runs every
// registered engine against every implemented criterion — du-opacity
// against final-state opacity (Definition 4), opacity (Definition 5),
// TMS2/RCO (Section 4.2) and the serializability baselines — over a
// randomized workload grid, records divergences between criteria, and
// shrinks each violating history to a minimal counterexample with
// gen.Shrink.
//
// Sharding is over independent units of work — each episode runs on a
// fresh engine, each batch entry is its own history, each exploration
// replays its own plan — so the only shared state is the result slot a
// shard owns exclusively. spec.Check is safe for concurrent use (each
// call builds its own search state and memo over an immutable history),
// which the race-enabled tests of this package and package spec pin down.
package checkfarm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// resolveJobs clamps a worker count: 0 (or negative) means GOMAXPROCS,
// and no more workers than shards are spawned.
func resolveJobs(jobs, shards int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > shards {
		jobs = shards
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// shard fans work(0..n-1) out over a pool of jobs workers. Shards are
// claimed from an atomic counter, so completion order is arbitrary — the
// caller must write results into per-shard slots. The first error (or a
// context cancellation) stops the pool and is returned; in-flight shards
// finish, unclaimed shards never start.
func shard(ctx context.Context, n, jobs int, work func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	jobs = resolveJobs(jobs, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := work(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Run is the in-process farm: it normalizes the spec, computes every
// shard with RunShard over a pool of jobs workers (jobs <= 0 uses
// GOMAXPROCS), and folds the results in shard order with FoldJob — the
// shard function and the fold a certd coordinator runs over its workers,
// so a local run and a distributed one report the same bytes. A shard
// that panics is retried with backoff (runProtected) and, past its
// retries, becomes DegradedShard carrying the panic reason: the farm
// proceeds and the report counts it. Any other shard error, or a
// cancelled ctx, fails the run.
//
// Run holds one ShardResult per shard until the fold, as certd's
// coordinator does; certify results carry no history, so that is about a
// kilobyte per episode.
func (s JobSpec) Run(ctx context.Context, jobs int) (*JobReport, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	results := make([]*ShardResult, s.NumShards())
	err = shard(ctx, len(results), jobs, func(i int) error {
		var r ShardResult
		err := runProtected(ctx, i, func() (err error) {
			r, err = s.RunShard(ctx, i)
			return err
		})
		var pe *ShardPanicError
		if errors.As(err, &pe) {
			r, err = s.DegradedShard(i, pe.Error()), nil
		}
		results[i] = &r
		return err
	})
	if err != nil {
		return nil, err
	}
	return FoldJob(ctx, s, results, jobs)
}
