package checkfarm

import (
	"context"
	"fmt"
	"time"

	"duopacity/internal/chaos"
)

// This file is the farm's worker-fault containment: a panicking shard must
// not take the whole certification down (ordinary errors keep the farm's
// first-error-cancels semantics; a panic is not a verdict, it is a
// crashed worker). JobSpec.Run wraps each shard's RunShard in
// runProtected: a shard that panics is retried up to ShardAttempts times
// with exponential backoff, and one that panics past its retries
// degrades — Run substitutes DegradedShard, an explicit degraded-and-
// undecided result carrying the reason, and the rest of the farm
// proceeds. chaos.FarmFaults attached to the context
// (chaos.WithFarmFaults) strikes inside the protected region, so injected
// faults exercise exactly this machinery.

// ShardAttempts bounds how many times a shard runs before it degrades: a
// panicking shard here (first run plus two retries), a granted one in
// certd's coordinator.
const ShardAttempts = 3

// ShardPanicError reports a shard whose compute unit panicked on every
// one of its ShardAttempts attempts.
type ShardPanicError struct {
	// Shard is the index of the work unit (episode, batch entry, plan).
	Shard int
	// Attempt is the zero-based attempt of the final panic.
	Attempt int
	// Value is the recovered panic value of the final attempt.
	Value any
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("checkfarm: shard %d panicked on all %d attempts: %v", e.Shard, e.Attempt+1, e.Value)
}

// runProtected executes fn with panic recovery and bounded retry. A panic
// is recovered, the shard backs off exponentially (1ms, 2ms, ... —
// interruptible by ctx) and fn runs again, up to ShardAttempts attempts;
// the final failure returns a *ShardPanicError. Ordinary errors from fn
// return immediately — retry is for crashes, not verdicts. Fault
// schedules attached via chaos.WithFarmFaults strike inside the recovered
// region, before fn.
func runProtected(ctx context.Context, shard int, fn func() error) error {
	faults := chaos.FarmFaultsFromContext(ctx)
	var last *ShardPanicError
	for attempt := 0; attempt < ShardAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond << uint(attempt-1)):
			}
		}
		panicked := false
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					panicked = true
					last = &ShardPanicError{Shard: shard, Attempt: attempt, Value: v}
				}
			}()
			faults.Strike(shard, attempt)
			return fn()
		}()
		if !panicked {
			return err
		}
	}
	return last
}
