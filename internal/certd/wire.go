package certd

import (
	"errors"
	"fmt"

	"duopacity/internal/checkfarm"
	"duopacity/internal/spec"
)

// Verify reports whether a delivery is well formed for the job it names,
// before any of it is applied: every outcome names a shard of the job and
// carries a result or an error, not both; a result is not a degradation
// artifact (only the coordinator makes those) and holds what the job's
// kind computes — an episode with one verdict per criterion of the job,
// in the job's order (none when skipped), an exploration, or one check
// verdict per criterion. The compact episode grammar, and the histories a
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
		if o.Result != nil {
			if err := verifyResult(s, o.Result); err != nil {
				return fmt.Errorf("certd: result for job %s shard %d: %w", r.JobID, o.Shard, err)
			}
		}
	}
	return nil
}

func verifyResult(s checkfarm.JobSpec, res *checkfarm.ShardResult) error {
	if res.Degraded != "" {
		return errors.New("a worker's result is never a degradation artifact")
	}
	episode, explore, check := res.Episode != nil, res.Explore != nil, res.Check != nil
	switch s.Kind {
	case checkfarm.KindCertify, checkfarm.KindSoak:
		if !episode || explore || check {
			return errors.New("carries no episode, or more than one")
		}
		var criteria []spec.Criterion
		if s.Kind == checkfarm.KindSoak {
			criteria = s.Soak.Config.Criteria
		} else {
			criteria = s.Certify.Criteria
		}
		if ep := res.Episode; ep.Skipped {
			if len(ep.Verdicts) > 0 {
				return errors.New("a skipped episode carries verdicts")
			}
		} else {
			return sameCriteria(ep.Verdicts, criteria, func(v spec.Verdict) spec.Criterion { return v.Criterion })
		}
	case checkfarm.KindExplore:
		if !explore || episode || check {
			return errors.New("carries no exploration, or more than one")
		}
	case checkfarm.KindCheck:
		if !check || episode || explore {
			return errors.New("carries no check verdicts, or more than one")
		}
		return sameCriteria(res.Check, s.Check.Criteria, func(v checkfarm.WireVerdict) spec.Criterion { return v.Criterion })
	}
	return nil
}

// sameCriteria reports whether vs holds one verdict per criterion, in
// criteria's order.
func sameCriteria[V any](vs []V, criteria []spec.Criterion, criterion func(V) spec.Criterion) error {
	if len(vs) != len(criteria) {
		return fmt.Errorf("%d verdicts for %d criteria", len(vs), len(criteria))
	}
	for i, v := range vs {
		if c := criterion(v); c != criteria[i] {
			return fmt.Errorf("verdict %d is for %s, want %s", i, c, criteria[i])
		}
	}
	return nil
}
