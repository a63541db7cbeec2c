package certd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
	"duopacity/internal/spec"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// clockedServer is a coordinator whose lease bookkeeping reads clk.
func clockedServer(cfg Config, clk *fakeClock) *Server {
	s := NewServer(cfg)
	s.now = clk.Now
	return s
}

func checkJobSpec(histories ...string) checkfarm.JobSpec {
	return checkfarm.JobSpec{Kind: checkfarm.KindCheck, Check: &checkfarm.CheckJob{
		Histories: histories,
		Criteria:  []spec.Criterion{spec.DUOpacity},
	}}
}

// waitReport fetches the folded report with a hard timeout: a hung
// coordinator is itself a failure here.
func waitReport(t *testing.T, s *Server, id string) (*checkfarm.JobReport, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, text, err := s.Report(ctx, id)
	if err != nil {
		t.Fatalf("Report(%s): %v", id, err)
	}
	return rep, text
}

// poll is a lease poll that does not wait.
func poll(s *Server, worker string) *LeaseGrant {
	return s.Lease(context.Background(), worker, 0)
}

// outcomes computes the named shards of a grant's job for real.
func outcomes(t *testing.T, g *LeaseGrant, shards ...int) []ShardOutcome {
	t.Helper()
	out := make([]ShardOutcome, len(shards))
	for i, shard := range shards {
		res, err := g.Spec.RunShard(context.Background(), shard)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ShardOutcome{Shard: shard, Result: &res}
	}
	return out
}

// deliver posts the results of the named shards (default: the whole
// grant) under the grant's lease.
func deliver(t *testing.T, s *Server, g *LeaseGrant, worker string, shards ...int) {
	t.Helper()
	if len(shards) == 0 {
		shards = g.Shards
	}
	if err := s.Result(ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: worker, Outcomes: outcomes(t, g, shards...)}); err != nil {
		t.Fatal(err)
	}
}

// deliverErr posts an error outcome for one shard under the grant's lease.
func deliverErr(t *testing.T, s *Server, g *LeaseGrant, worker string, shard int, msg string) {
	t.Helper()
	if err := s.Result(ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: worker, Outcomes: []ShardOutcome{{Shard: shard, Err: msg}}}); err != nil {
		t.Fatal(err)
	}
}

// holds reports whether the grant is exactly the given shards.
func holds(g *LeaseGrant, shards ...int) bool {
	return g != nil && slices.Equal(g.Shards, shards)
}

// finish has a healthy worker take and deliver everything grantable, and
// returns the shards in the order they were granted.
func finish(t *testing.T, s *Server, worker string) []int {
	t.Helper()
	var shards []int
	for g := poll(s, worker); g != nil; g = poll(s, worker) {
		shards = append(shards, g.Shards...)
		deliver(t, s, g, worker)
	}
	return shards
}

// smallHistories returns n distinct one-transaction histories: an n-shard
// check job whose shards cost microseconds.
func smallHistories(n int) []string {
	hs := make([]string, n)
	for i := range hs {
		hs[i] = fmt.Sprintf("write 1 X %d\ncommit 1\n", i+1)
	}
	return hs
}

// primedJob submits an n-shard check job and takes it past its probe:
// shard 0 is granted to worker and delivered, so later grants are sized
// by the policy. The fake clock is not advanced, so the observed
// turnaround is zero and the heartbeat budget never binds.
func primedJob(t *testing.T, s *Server, n int, worker string) string {
	t.Helper()
	id, got, err := s.Submit(checkJobSpec(smallHistories(n)...))
	if err != nil || got != n {
		t.Fatalf("Submit: %v (n=%d)", err, got)
	}
	g := poll(s, worker)
	if !holds(g, 0) {
		t.Fatalf("probe grant: %+v", g)
	}
	deliver(t, s, g, worker)
	return id
}

// TestLeaseExpiryRequeues pins the worker-dies-mid-shard path: the lease
// expires, the shard goes back in the queue, and a second worker
// completes the job with no degradation.
func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id, n, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil || n != 1 {
		t.Fatalf("Submit: %v (n=%d)", err, n)
	}

	g1 := poll(s, "w1")
	if !holds(g1, 0) {
		t.Fatalf("first lease: %+v", g1)
	}
	// w1 dies: no heartbeat, no result. Before expiry no other worker
	// can steal the shard.
	if g := poll(s, "w2"); g != nil {
		t.Fatalf("shard double-leased before expiry: %+v", g)
	}
	clk.Advance(1500 * time.Millisecond)

	g2 := poll(s, "w2")
	if !holds(g2, 0) || g2.LeaseID == g1.LeaseID {
		t.Fatalf("expiry did not requeue the shard: %+v", g2)
	}
	if got := s.Metrics.LeasesExpired.Load(); got != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", got)
	}
	if got := s.Metrics.ShardsRequeued.Load(); got != 1 {
		t.Fatalf("ShardsRequeued = %d, want 1", got)
	}
	// The dead worker's heartbeat (if it wakes up late) is refused.
	if s.Heartbeat(g1.LeaseID) {
		t.Fatalf("expired lease accepted a heartbeat")
	}

	deliver(t, s, g2, "w2")
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 0 {
		t.Fatalf("requeued-and-completed shard counted degraded:\n%s", text)
	}
	if !rep.Check[0][0].OK {
		t.Fatalf("verdict wrong after requeue: %+v", rep.Check[0][0])
	}
}

// TestExpireFindingNothingAllocatesNothing: the expiry scan that every
// poll and heartbeat runs allocates nothing while no lease has expired.
func TestExpireFindingNothingAllocatesNothing(t *testing.T) {
	s := clockedServer(Config{LeaseTTL: time.Second}, newFakeClock())
	primedJob(t, s, 9, "w1")
	for poll(s, "w1") != nil {
	}
	if s.Stats().Jobs.LeasesOutstanding == 0 {
		t.Fatal("no lease outstanding")
	}
	if allocs := testing.AllocsPerRun(100, s.Expire); allocs != 0 {
		t.Fatalf("an expiry scan that finds nothing allocated %v times", allocs)
	}
}

// TestLeaseExhaustionDegrades: a shard whose every grant dies becomes an
// explicit degraded artifact and the job still completes — never hangs.
func TestLeaseExhaustionDegrades(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second, MaxShardAttempts: 3}, clk)
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		if g := poll(s, "doomed"); g == nil {
			t.Fatalf("attempt %d: no grant", attempt)
		}
		clk.Advance(2 * time.Second)
		s.Expire()
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 1 {
		t.Fatalf("degraded count %d, want 1\n%s", rep.Degraded, text)
	}
	v := rep.Check[0][0]
	if !v.Undecided || !strings.Contains(v.Reason, "degraded") || !strings.Contains(v.Reason, "lease expired") {
		t.Fatalf("degraded artifact wrong: %+v", v)
	}
	if !strings.Contains(text, "degraded") {
		t.Fatalf("formatted report hides the degradation:\n%s", text)
	}
	if g := poll(s, "late"); g != nil {
		t.Fatalf("degraded shard re-leased: %+v", g)
	}
	st, err := s.Status(id)
	if err != nil || st.State != JobDone || st.Degraded != 1 {
		t.Fatalf("status: %+v, %v", st, err)
	}
}

// TestDuplicateResultDelivery: redelivered and stale results are
// acknowledged no-ops; the fold sees each shard exactly once.
func TestDuplicateResultDelivery(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := poll(s, "w1")
	req := ResultRequest{JobID: id, LeaseID: g1.LeaseID, Worker: "w1", Outcomes: outcomes(t, g1, 0)}
	for i := 0; i < 3; i++ {
		if err := s.Result(req); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if got := s.Metrics.ShardsDone.Load(); got != 1 {
		t.Fatalf("ShardsDone = %d after duplicate deliveries, want 1", got)
	}
	rep, _ := waitReport(t, s, id)
	if rep.Degraded != 0 || !rep.Check[0][0].OK {
		t.Fatalf("report wrong after duplicates: %+v", rep)
	}
}

// TestStaleResultAfterRequeue: a presumed-dead worker delivering after
// its lease expired and the shard was re-leased still resolves the shard
// (the result is valid work); the second worker's later delivery is the
// duplicate no-op.
func TestStaleResultAfterRequeue(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := poll(s, "slow")
	clk.Advance(2 * time.Second)
	g2 := poll(s, "fast") // triggers expiry, re-leases shard 0
	if !holds(g2, 0) {
		t.Fatalf("requeue grant: %+v", g2)
	}
	// The slow worker's stale delivery arrives first.
	deliver(t, s, g1, "slow")
	// The fast worker finishes and delivers into a done shard: no-op.
	deliver(t, s, g2, "fast")
	rep, _ := waitReport(t, s, id)
	if rep.Degraded != 0 || s.Metrics.ShardsDone.Load() != 1 {
		t.Fatalf("stale+duplicate handling wrong: degraded=%d done=%d", rep.Degraded, s.Metrics.ShardsDone.Load())
	}
	st, _ := s.Status(id)
	if st.Leased != 0 {
		t.Fatalf("leased gauge leaked: %+v", st)
	}
}

// TestStaleResultWhileRequeued: the slow worker's result arrives while
// its expired shard is still sitting in the pending queue (not yet
// re-leased). The result resolves the shard AND removes it from the
// queue — a later Lease must never grant an already-done shard (which
// would double-resolve it and fail the fold on a multi-shard job).
func TestStaleResultWhileRequeued(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id, n, err := s.Submit(checkJobSpec(
		"write 1 X 1\ncommit 1\n",
		"write 1 Y 2\ncommit 1\n",
	))
	if err != nil || n != 2 {
		t.Fatalf("Submit: %v (n=%d)", err, n)
	}
	g1 := poll(s, "slow")
	if !holds(g1, 0) {
		t.Fatalf("first lease: %+v", g1)
	}
	clk.Advance(2 * time.Second)
	s.Expire() // shard 0 back in the queue behind shard 1; nobody re-leases it
	deliver(t, s, g1, "slow")
	// Only shard 1 is grantable now; shard 0 is done and must be gone
	// from the queue.
	gA := poll(s, "w2")
	if !holds(gA, 1) {
		t.Fatalf("expected shard 1 grant, got %+v", gA)
	}
	if gB := poll(s, "w3"); gB != nil {
		t.Fatalf("already-done shard granted again: %+v", gB)
	}
	deliver(t, s, gA, "w2")
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 0 {
		t.Fatalf("stale-while-pending resolve degraded the job:\n%s", text)
	}
	if got := s.Metrics.ShardsDone.Load(); got != 2 {
		t.Fatalf("ShardsDone = %d, want 2", got)
	}
	st, _ := s.Status(id)
	if st.Leased != 0 || st.Done != 2 {
		t.Fatalf("gauges skewed after stale resolve: %+v", st)
	}
}

// TestStaleErrorAfterRequeue: an Err delivery from a lease that no
// longer owns the shard (it expired and the shard was requeued) is a
// no-op — no duplicate pending entry, so the shard can never be leased
// to two workers at once.
func TestStaleErrorAfterRequeue(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := poll(s, "slow")
	clk.Advance(2 * time.Second)
	s.Expire() // shard 0 requeued
	deliverErr(t, s, g1, "slow", 0, "boom")
	if got := s.Metrics.ShardsRequeued.Load(); got != 1 {
		t.Fatalf("stale Err requeued again: ShardsRequeued = %d, want 1", got)
	}
	g2 := poll(s, "w2")
	if !holds(g2, 0) {
		t.Fatalf("requeued shard not grantable: %+v", g2)
	}
	if g3 := poll(s, "w3"); g3 != nil {
		t.Fatalf("shard leased twice concurrently: %+v", g3)
	}
	deliver(t, s, g2, "w2")
	rep, _ := waitReport(t, s, id)
	if rep.Degraded != 0 || s.Metrics.ShardsDone.Load() != 1 {
		t.Fatalf("stale Err handling wrong: degraded=%d done=%d", rep.Degraded, s.Metrics.ShardsDone.Load())
	}
	st, _ := s.Status(id)
	if st.Leased != 0 {
		t.Fatalf("leased gauge leaked: %+v", st)
	}
}

// TestErrorResultRequeues: a worker reporting a failed computation sends
// the shard back to the queue with the attempt burned.
func TestErrorResultRequeues(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second, MaxShardAttempts: 2}, clk)
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := poll(s, "w1")
	deliverErr(t, s, g, "w1", 0, "shard panicked: boom")
	g2 := poll(s, "w1")
	if g2 == nil {
		t.Fatalf("errored shard was not requeued")
	}
	// Second failure exhausts the attempts -> degraded, job completes.
	deliverErr(t, s, g2, "w1", 0, "shard panicked: boom")
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 1 || !strings.Contains(text, "degraded") {
		t.Fatalf("exhausted error path not degraded:\n%s", text)
	}
}

// TestDrainDegradesOutstanding: draining with shards pending and leased
// completes every job with explicit degradation artifacts — the
// coordinator never leaves a submitter hanging.
func TestDrainDegradesOutstanding(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Minute}, clk)
	id, n, err := s.Submit(checkJobSpec(
		"write 1 X 1\ncommit 1\n",
		"write 1 Y 2\ncommit 1\n",
		"write 2 Z 3\ncommit 2\n",
	))
	if err != nil || n != 3 {
		t.Fatalf("Submit: %v (n=%d)", err, n)
	}
	// Shard 0 completes normally; shard 1 is leased to a worker that will
	// never return; shard 2 stays pending.
	g0 := poll(s, "w1")
	deliver(t, s, g0, "w1")
	_ = poll(s, "vanished")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Degraded != 2 {
		t.Fatalf("drained job status: %+v", st)
	}
	if !strings.Contains(st.Formatted, "degraded") {
		t.Fatalf("drained report hides degradation:\n%s", st.Formatted)
	}
	// Draining coordinator refuses new work.
	if _, _, err := s.Submit(checkJobSpec("commit 1\n")); err == nil {
		t.Fatalf("draining coordinator accepted a job")
	}
	if g := poll(s, "w9"); g != nil {
		t.Fatalf("draining coordinator granted a lease: %+v", g)
	}
}

// TestGrantPartialDelivery: a worker delivers two of a four-shard grant
// and dies. The lease keeps the two it still owes and expires with exactly
// those; redelivery, and the dead worker's late full delivery, resolve
// nothing twice.
func TestGrantPartialDelivery(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id := primedJob(t, s, 9, "w1")
	g := poll(s, "w1") // 8 pending, one worker: ceil(8/2)
	if !holds(g, 1, 2, 3, 4) {
		t.Fatalf("grant: %+v", g)
	}
	deliver(t, s, g, "w1", 1, 2)
	if st, _ := s.Status(id); st.Leased != 2 || st.Done != 3 {
		t.Fatalf("after partial delivery: %+v", st)
	}
	if !s.Heartbeat(g.LeaseID) {
		t.Fatalf("lease dropped while it still owes shards")
	}
	clk.Advance(2 * time.Second)
	s.Expire()
	if exp, req := s.Metrics.LeasesExpired.Load(), s.Metrics.ShardsRequeued.Load(); exp != 1 || req != 2 {
		t.Fatalf("expired=%d requeued=%d, want 1 and 2 (only the undelivered shards)", exp, req)
	}
	if st, _ := s.Status(id); st.Leased != 0 {
		t.Fatalf("leased gauge after expiry: %+v", st)
	}
	// The same two again, then — late — the whole grant: 3 and 4 are valid
	// work and resolve out of the pending queue, 1 and 2 are duplicates.
	deliver(t, s, g, "w1", 1, 2)
	deliver(t, s, g, "w1")
	if got := s.Metrics.ShardsDone.Load(); got != 5 {
		t.Fatalf("ShardsDone = %d, want 5", got)
	}
	// Only 5..8 are left to grant.
	if rest := finish(t, s, "w2"); !slices.Equal(rest, []int{5, 6, 7, 8}) {
		t.Fatalf("granted %v after the stale delivery, want [5 6 7 8]", rest)
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 0 || s.Metrics.ShardsDone.Load() != 9 {
		t.Fatalf("degraded=%d done=%d\n%s", rep.Degraded, s.Metrics.ShardsDone.Load(), text)
	}
}

// TestGrantErrOutcomeRequeuesOnlyThatShard: one failed shard inside an
// otherwise good batch goes back to the queue alone.
func TestGrantErrOutcomeRequeuesOnlyThatShard(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id := primedJob(t, s, 9, "w1")
	g := poll(s, "w1")
	if !holds(g, 1, 2, 3, 4) {
		t.Fatalf("grant: %+v", g)
	}
	outs := outcomes(t, g, 1, 2, 3, 4)
	outs[1] = ShardOutcome{Shard: 2, Err: "shard panicked: boom"}
	if err := s.Result(ResultRequest{JobID: id, LeaseID: g.LeaseID, Worker: "w1", Outcomes: outs}); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics.ShardsRequeued.Load(); got != 1 {
		t.Fatalf("ShardsRequeued = %d, want 1", got)
	}
	if st, _ := s.Status(id); st.Done != 4 || st.Leased != 0 {
		t.Fatalf("after the batch: %+v", st)
	}
	if s.Heartbeat(g.LeaseID) {
		t.Fatalf("a lease that owes nothing is still live")
	}
	// Shard 2 queues behind the untouched 5..8 and comes round again.
	if again := finish(t, s, "w1"); !slices.Equal(again, []int{5, 6, 7, 8, 2}) {
		t.Fatalf("regranted %v, want [5 6 7 8 2]", again)
	}
	if rep, _ := waitReport(t, s, id); rep.Degraded != 0 {
		t.Fatalf("degraded %d", rep.Degraded)
	}
}

// TestResultNamingUnownedShard: a lease delivering outcomes for shards it
// never held. A result is valid work whoever computed it, so it resolves
// the shard and takes it off its real owner; an error from a non-owner is
// a no-op; a shard the job does not have refuses the whole request.
func TestResultNamingUnownedShard(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second}, clk)
	id := primedJob(t, s, 9, "a")
	ga := poll(s, "a") // ceil(8/2)
	gb := poll(s, "b") // two workers now: ceil(4/4)
	if !holds(ga, 1, 2, 3, 4) || !holds(gb, 5) {
		t.Fatalf("grants: %+v %+v", ga, gb)
	}
	bad := append(outcomes(t, gb, 5), ShardOutcome{Shard: 99, Err: "x"})
	if err := s.Result(ResultRequest{JobID: id, LeaseID: gb.LeaseID, Worker: "b", Outcomes: bad}); err == nil {
		t.Fatalf("a shard the job does not have was accepted")
	}
	if st, _ := s.Status(id); st.Done != 1 || st.Leased != 5 {
		t.Fatalf("a refused request was partly applied: %+v", st)
	}
	outs := append(outcomes(t, gb, 1), ShardOutcome{Shard: 2, Err: "not mine"})
	if err := s.Result(ResultRequest{JobID: id, LeaseID: gb.LeaseID, Worker: "b", Outcomes: outs}); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(id); st.Done != 2 || st.Leased != 4 { // a: 2,3,4  b: 5
		t.Fatalf("after b's foreign outcomes: %+v", st)
	}
	if got := s.Metrics.ShardsRequeued.Load(); got != 0 {
		t.Fatalf("a non-owner's error requeued a shard (%d)", got)
	}
	deliver(t, s, ga, "a") // shard 1 is the duplicate
	deliver(t, s, gb, "b")
	finish(t, s, "a")
	if rep, _ := waitReport(t, s, id); rep.Degraded != 0 || s.Metrics.ShardsDone.Load() != 9 {
		t.Fatalf("degraded=%d done=%d", rep.Degraded, s.Metrics.ShardsDone.Load())
	}
}

// parkLease starts a lease poll that finds nothing and waits until the
// coordinator has parked it.
func parkLease(t *testing.T, s *Server, lease func() *LeaseGrant) <-chan *LeaseGrant {
	t.Helper()
	parked := s.Metrics.LeasePollsParked.Load()
	got := make(chan *LeaseGrant, 1)
	go func() { got <- lease() }()
	for deadline := time.Now().Add(10 * time.Second); s.Metrics.LeasePollsParked.Load() == parked; {
		if time.Now().After(deadline) {
			t.Fatal("lease poll was never parked")
		}
		time.Sleep(time.Millisecond)
	}
	return got
}

// TestSubmitAndRequeueWakeParkedLease: a parked poll is answered by the
// submit, or the requeue, that gives it something to do — long before its
// hold runs out.
func TestSubmitAndRequeueWakeParkedLease(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Minute}, clk)
	hold := func() *LeaseGrant { return s.Lease(context.Background(), "w1", time.Minute) }

	got := parkLease(t, s, hold)
	id, _, err := s.Submit(checkJobSpec(smallHistories(1)...))
	if err != nil {
		t.Fatal(err)
	}
	var g *LeaseGrant
	select {
	case g = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit did not wake the parked poll")
	}
	if !holds(g, 0) {
		t.Fatalf("grant after submit: %+v", g)
	}

	got = parkLease(t, s, hold)
	deliverErr(t, s, g, "w1", 0, "boom")
	select {
	case g = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the requeue did not wake the parked poll")
	}
	if !holds(g, 0) {
		t.Fatalf("grant after requeue: %+v", g)
	}
	deliver(t, s, g, "w1")
	waitReport(t, s, id)
}

// TestDrainWakesParkedLease: a worker parked in a long poll over HTTP is
// answered "no work" by Drain itself, so the HTTP server shuts down right
// after with no handler left to wait for.
func TestDrainWakesParkedLease(t *testing.T) {
	s := NewServer(Config{LeaseTTL: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	c := &Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: &http.Transport{}}}
	defer c.HTTP.CloseIdleConnections()

	got := parkLease(t, s, func() *LeaseGrant {
		g, _, err := c.Lease(context.Background(), "w1", time.Minute)
		if err != nil {
			t.Errorf("parked lease: %v", err)
		}
		return g
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown waited on a handler: %v", err)
	}
	select {
	case g := <-got:
		if g != nil {
			t.Fatalf("draining coordinator granted %+v", g)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked poll never answered")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("drain + shutdown took %v with a one-minute hold parked", took)
	}
}

// TestWaitJobReturnsAtFold: WaitJob with a long poll comes back when the
// fold lands, not a poll later.
func TestWaitJobReturnsAtFold(t *testing.T) {
	s, c := startFarm(t, Config{LeaseTTL: time.Minute}, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, _, err := c.Submit(ctx, checkJobSpec(smallHistories(1)...))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		st  *JobStatus
		err error
		at  time.Time
	}
	waited := make(chan answer, 1)
	go func() {
		st, err := c.WaitJob(ctx, id, 30*time.Second)
		waited <- answer{st, err, time.Now()}
	}()
	select {
	case a := <-waited:
		t.Fatalf("WaitJob returned before the job ran: %+v, %v", a.st, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	deliver(t, s, poll(s, "w1"), "w1")
	waitReport(t, s, id)
	folded := time.Now()
	select {
	case a := <-waited:
		if a.err != nil || a.st.State != JobDone {
			t.Fatalf("WaitJob: %+v, %v", a.st, a.err)
		}
		if lag := a.at.Sub(folded); lag > 5*time.Second {
			t.Fatalf("WaitJob answered %v after the fold", lag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitJob slept through the fold")
	}
}

// TestGrantExhaustionDegrades: batches whose every grant dies burn one
// attempt per shard per grant, and every shard of them ends as its own
// degraded artifact — the job still completes.
func TestGrantExhaustionDegrades(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Second, MaxShardAttempts: 2}, clk)
	id := primedJob(t, s, 9, "w1")
	for attempt := 0; attempt < 2; attempt++ {
		taken := 0
		for g := poll(s, "doomed"); g != nil; g = poll(s, "doomed") {
			taken += len(g.Shards)
		}
		if taken != 8 {
			t.Fatalf("attempt %d: %d shards grantable, want 8", attempt, taken)
		}
		clk.Advance(2 * time.Second)
		s.Expire()
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 8 || s.Metrics.ShardsDegraded.Load() != 8 {
		t.Fatalf("degraded %d (metric %d), want 8\n%s", rep.Degraded, s.Metrics.ShardsDegraded.Load(), text)
	}
	if got := s.Metrics.ShardsRequeued.Load(); got != 8 {
		t.Fatalf("ShardsRequeued = %d, want 8 (once per shard, after the first death)", got)
	}
	if g := poll(s, "late"); g != nil {
		t.Fatalf("degraded shards granted again: %+v", g)
	}
}

// TestDrainDegradesOutstandingGrant: drain with a batch out and the rest
// queued degrades every shard of both and leaves no lease behind.
func TestDrainDegradesOutstandingGrant(t *testing.T) {
	clk := newFakeClock()
	s := clockedServer(Config{LeaseTTL: time.Minute}, clk)
	id := primedJob(t, s, 9, "w1")
	g := poll(s, "w1") // and w1 vanishes
	if !holds(g, 1, 2, 3, 4) {
		t.Fatalf("grant: %+v", g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, err := s.Status(id)
	if err != nil || st.State != JobDone || st.Degraded != 8 || st.Leased != 0 {
		t.Fatalf("drained job: %+v, %v", st, err)
	}
	if s.Heartbeat(g.LeaseID) || s.Stats().Jobs.LeasesOutstanding != 0 {
		t.Fatalf("a lease outlived the drain")
	}
	// The vanished worker's late delivery changes nothing.
	deliver(t, s, g, "w1")
	if st2, _ := s.Status(id); st2.Degraded != 8 || st2.Formatted != st.Formatted {
		t.Fatalf("a delivery after the drain changed the report: %+v", st2)
	}
}
