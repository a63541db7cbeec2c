package certd

import (
	"fmt"

	"duopacity/internal/checkfarm"
)

// Verify reports whether a delivery is well formed for the job it names,
// before any of it is applied: every outcome names a shard of the job and
// carries a result or an error, not both; a result is not a degradation
// artifact (only the coordinator makes those) and fits the job
// (checkfarm.ShardResult.Fits, the check FoldJob runs too). The compact episode grammar, and the histories a
// soak cell or an exploration's violation carries, were parsed when the
// request decoded: a delivery with one that does not parse is refused
// whole.
//
// Verify cannot check that a result is what RunShard computes for its
// shard — the coordinator trusts its workers' compute, not their framing
// — nor whether the presenting lease still owns a shard, which is the
// lease machine's to decide.
func (r *ResultRequest) Verify(s checkfarm.JobSpec) error {
	shards := s.NumShards()
	for _, o := range r.Outcomes {
		if o.Shard < 0 || o.Shard >= shards {
			return fmt.Errorf("certd: job %s has no shard %d", r.JobID, o.Shard)
		}
		if (o.Err == "") == (o.Result == nil) {
			return fmt.Errorf("certd: outcome for job %s shard %d must carry a result or an error, and not both", r.JobID, o.Shard)
		}
		if o.Result == nil {
			continue
		}
		if o.Result.Degraded != "" {
			return fmt.Errorf("certd: result for job %s shard %d: a worker's result is never a degradation artifact", r.JobID, o.Shard)
		}
		if err := o.Result.Fits(s); err != nil {
			return fmt.Errorf("certd: result for job %s shard %d: %w", r.JobID, o.Shard, err)
		}
	}
	return nil
}
