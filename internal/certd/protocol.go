// Package certd turns the in-process certification farm (package
// checkfarm) into a service: a coordinator slices farm jobs — episode
// certifications, differential soak cells, exhaustive plan explorations,
// history batches — into the shards of checkfarm.JobSpec and hands them
// to pull-based workers over a lease/heartbeat protocol, folding the
// ordered results with checkfarm.FoldJob so a distributed run's report
// is byte-identical to the in-process farm's. A second, line-oriented
// listener puts `ducheck -follow` on the network: each connection runs
// the same follow core (package follow — one spec.Session, so one shared
// stream however many criteria the hello names) in the same loop, and
// gets per-event verdicts back in bounded per-stream memory.
//
// The coordinator never trusts a worker to stay alive: every grant
// carries a lease with a TTL, heartbeats extend it, and an expired lease
// requeues the shards it still owes. A shard that burns through its
// attempts degrades into the explicit artifacts of
// checkfarm.(JobSpec).DegradedShard — the PR 7 contract that a dead worker
// costs coverage, visibly, never a hung or silently-wrong run.
//
// # Job protocol (HTTP/JSON)
//
//	POST /v1/jobs       SubmitRequest  -> SubmitResponse
//	POST /v1/lease      LeaseRequest   -> LeaseGrant, or 204 (no work, or deliver_only)
//	                                      (its Deliver, the last grant's outcomes, is applied first; idempotent)
//	POST /v1/heartbeat  HeartbeatRequest -> 200, or 410 (lease gone)
//	GET  /v1/jobs/{id}[?wait_millis=N] -> JobStatus
//	GET  /healthz       -> "ok" | "draining"
//	GET  /statsz        -> StatsSnapshot
//
// The POST routes answer 405 to any other method, 413 to a body over
// 16 MiB and 400 to a body that is not their request; a lease request
// whose delivery does not verify (ResultRequest.Verify) is refused with
// 400 whole — no outcome of it applied, no grant made on it. A job of
// more than 2^20 shards is refused with 400 before the coordinator
// allocates anything for it.
//
// A grant costs one exchange. A grant is a batch: Shards of one job under
// one lease, so the spec travels, the lease is bookkept and the worker
// heartbeats once per grant, and the worker's next lease request carries
// one outcome per shard back (LeaseRequest.Deliver) — the coordinator
// applies them before it grants or parks the request, so a fold never
// waits on a poll's hold. A stopping worker sends what it has on a
// delivery-only request (DeliverOnly), which takes no grant. The lease
// machine's rules hold per shard inside the grant: the lease owns a shard
// until that shard's outcome arrives; expiry requeues exactly the shards
// still owed, lease by lease in grant order, so the same calls at the
// same clock readings always give the same grants; an Err outcome
// requeues only its own shard, and only while the presenting lease still
// owns it; a result for a done shard is an acknowledged no-op; every
// grant of a shard burns one of its attempts.
//
// The coordinator sizes each grant itself (grantSizeLocked): a job that
// has not had a result delivered yet is probed with single shards; after
// that a grant is ceil(pending / 2W) shards — W the workers seen polling
// within the last LeaseTTL — cut down so that its expected compute, from
// the job's own observed grant-to-result time per shard, fits one
// heartbeat interval (LeaseTTL/3). Shards that take as long as a
// heartbeat interval therefore still travel one per grant, and a dead
// worker costs at most about one heartbeat interval of work, redone after
// at most one TTL.
//
// Both waits are long polls. A lease request with wait_millis is parked
// while there is nothing to grant and answered the moment a job is
// submitted, a shard is requeued or the coordinator drains — or with 204
// when the wait runs out; a status request with wait_millis is parked
// until the job's fold lands. Either wait is clamped to LeaseTTL.
//
// # Stream protocol (line-oriented TCP)
//
// The client opens with a hello line (package follow has its codec, and DONE's):
//
//	STREAM <criteria-csv> [retire=N] [nodelimit=N] [skipbad|strict] [quiet]
//
// and the server answers "OK <stream-id>" or "ERR <reason>" (admission
// control: past MaxStreams every hello is refused with "ERR busy" — the
// connection-level analog of HTTP 429 — and counted in /statsz). The
// client then sends histio event lines; the server answers each accepted
// event with the `ducheck -follow` rendering (suppressed by quiet), each
// rejected line with "BAD <line> <reason>" (silent under skipbad; fatal
// "ERR line <n>: <reason>" under strict). "END" or EOF finishes the
// stream: the server emits the final per-criterion verdict lines, the
// retirement summary when retire is set, the skipbad ledger when skipbad
// is set, and a terminal
//
//	DONE events=<n> bad=<n> dropped=0 violations=<n>
//
// line (dropped is always 0: every line read is monitored). What the
// server has to say leaves when the client's input goes idle — the server
// is about to read the connection again — so a producer that pauses after
// an event has that event's verdict, and one that never pauses is answered
// 32 KB at a time; there is no flush interval. The server reads a stream
// only as fast as it monitors it, so a faster producer waits on TCP flow
// control. Per-stream memory is bounded by the input line buffer (1 MB at
// most; a longer line fails the stream with "ERR read:") plus the
// session's retirement window. It never buffers without bound.
package certd

import (
	"duopacity/internal/checkfarm"
)

// SubmitRequest asks the coordinator to run a farm job.
type SubmitRequest struct {
	Spec checkfarm.JobSpec `json:"spec"`
}

// SubmitResponse acknowledges a submitted job.
type SubmitResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
}

// LeaseRequest is a worker pulling for work. WaitMillis is how long the
// coordinator may hold the request while it has nothing to grant (0: answer
// at once). Deliver carries the outcomes of the worker's previous grant;
// it is applied before anything is granted. A request that failed in
// transport is sent again with the same Deliver: delivery is idempotent.
// DeliverOnly asks for no grant — a stopping worker's last request.
type LeaseRequest struct {
	Worker      string         `json:"worker"`
	WaitMillis  int64          `json:"wait_millis,omitempty"`
	Deliver     *ResultRequest `json:"deliver,omitempty"`
	DeliverOnly bool           `json:"deliver_only,omitempty"`
}

// LeaseGrant hands shards of one job to a worker under one lease. The
// spec arrives normalized: the worker computes Spec.RunShard(ctx, shard)
// for each of Shards, in order, and sends the outcomes back under the
// lease in one ResultRequest, on its next lease request.
type LeaseGrant struct {
	JobID     string            `json:"job_id"`
	Shards    []int             `json:"shards"`
	LeaseID   string            `json:"lease_id"`
	TTLMillis int64             `json:"ttl_millis"`
	Spec      checkfarm.JobSpec `json:"spec"`
}

// HeartbeatRequest extends a lease. A 410 response means the lease
// already expired (its shards are requeued or degraded); the worker should
// abandon the rest of the grant.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// ShardOutcome is what became of one granted shard. Err reports a failed
// computation (the shard is requeued, or degraded past its attempts);
// otherwise Result carries the computed shard.
type ShardOutcome struct {
	Shard  int                    `json:"shard"`
	Result *checkfarm.ShardResult `json:"result,omitempty"`
	Err    string                 `json:"err,omitempty"`
}

// ResultRequest delivers the outcomes of a grant (LeaseRequest.Deliver).
// Delivery is idempotent per shard: an outcome for an already-folded
// shard is an acknowledged no-op, so retried or duplicated deliveries are
// harmless. Shards of the grant that the request does not name stay under
// the lease. Certify and soak outcomes carry their episode as one string
// of checkfarm's compact episode grammar, not an object per verdict.
type ResultRequest struct {
	JobID    string         `json:"job_id"`
	LeaseID  string         `json:"lease_id"`
	Worker   string         `json:"worker,omitempty"`
	Outcomes []ShardOutcome `json:"outcomes"`
}

// Job states reported by JobStatus.
const (
	JobRunning = "running" // shards outstanding
	JobFolding = "folding" // every shard delivered; aggregation in progress
	JobDone    = "done"    // report ready
	JobFailed  = "failed"  // the fold itself errored (malformed results)
)

// JobStatus is the coordinator's view of one job. Formatted is the
// report rendered exactly as the in-process farm CLIs render it — the
// byte-identity contract travels as text (structured explore and soak
// reports hold process-local types and stay on the coordinator).
type JobStatus struct {
	ID        string              `json:"id"`
	Kind      checkfarm.ShardKind `json:"kind"`
	State     string              `json:"state"`
	Shards    int                 `json:"shards"`
	Done      int                 `json:"done"`
	Leased    int                 `json:"leased"`
	Degraded  int                 `json:"degraded"`
	Formatted string              `json:"formatted,omitempty"`
	Err       string              `json:"err,omitempty"`
}
