package certd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// startFarm spins an in-process coordinator with nWorkers pull workers
// over real HTTP and returns a client. Everything tears down with the
// test.
func startFarm(t *testing.T, cfg Config, nWorkers int) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.ExpireLoop(ctx)
	for i := 0; i < nWorkers; i++ {
		w := &Worker{Client: c, Name: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
		go func() { _ = w.Run(ctx) }()
	}
	return s, c
}

func submitAndWait(t *testing.T, c *Client, job checkfarm.JobSpec) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id, _, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if st.State != JobDone {
		t.Fatalf("job %s finished %s: %s", id, st.State, st.Err)
	}
	return st
}

// TestDistributedCertifyByteIdentical is the acceptance gate: a
// certification sliced into leases, computed by networked workers, and
// folded by the coordinator renders byte-for-byte what the sequential
// harness.Certify renders for the same config.
func TestDistributedCertifyByteIdentical(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.Serializability}
	cfg := harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 3, Goroutines: 3, TxnsPerGoroutine: 2, OpsPerTxn: 3, Seed: 99},
		Episodes: 10, Interleaved: true,
	}
	local, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := checkfarm.JobSpec{Kind: checkfarm.KindCertify, Certify: &checkfarm.CertifyJob{Config: cfg, Criteria: criteria}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := harness.FormatCertTable(local, criteria)

	_, c := startFarm(t, Config{LeaseTTL: 2 * time.Second}, 3)
	st := submitAndWait(t, c, spec2)
	if st.Formatted != want {
		t.Fatalf("distributed certification diverged from sequential certification:\nlocal:\n%s\ndistributed:\n%s", want, st.Formatted)
	}
	if st.Degraded != 0 {
		t.Fatalf("healthy run degraded %d shard(s)", st.Degraded)
	}
}

func TestDistributedExploreByteIdentical(t *testing.T) {
	plans := []stm.Plan{
		stm.MustParsePlan("w0 | r0 r1\nw1"),
		stm.MustParsePlan("r0 w1\nr1 w0"),
	}
	local := make([]harness.ExploreReport, len(plans))
	for i, p := range plans {
		r, err := harness.ExplorePlanCtx(context.Background(), "gl", p, harness.ExploreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		local[i] = r
	}
	want := harness.FormatExploreTable(local)

	wire := make([]checkfarm.WirePlan, len(plans))
	for i, p := range plans {
		wire[i] = checkfarm.WirePlanOf(p)
	}
	_, c := startFarm(t, Config{LeaseTTL: 2 * time.Second}, 2)
	st := submitAndWait(t, c, checkfarm.JobSpec{Kind: checkfarm.KindExplore, Explore: &checkfarm.ExploreJob{Engine: "gl", Plans: wire}})
	if st.Formatted != want {
		t.Fatalf("distributed exploration diverged:\nlocal:\n%s\ndistributed:\n%s", want, st.Formatted)
	}
}

// TestSubmitRejectsUnexplorableCriterion: an explore job whose criterion
// the explorer cannot decide is refused at submit with 400, before any
// worker leases a shard of it.
func TestSubmitRejectsUnexplorableCriterion(t *testing.T) {
	s, c := startFarm(t, Config{LeaseTTL: 2 * time.Second}, 0)
	job := checkfarm.JobSpec{Kind: checkfarm.KindExplore, Explore: &checkfarm.ExploreJob{
		Engine: "tl2",
		Plans:  []checkfarm.WirePlan{checkfarm.WirePlanOf(stm.MustParsePlan("w0\nr0"))},
		Config: harness.ExploreConfig{Criterion: spec.TMS2},
	}}
	_, _, err := c.Submit(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "prefix-closed") {
		t.Fatalf("Submit of a TMS2 explore job: err = %v, want a 400 naming the criterion rule", err)
	}
	if n := s.Stats().Jobs.Open; n != 0 {
		t.Errorf("%d open jobs, want none", n)
	}
}

// TestDistributedSoakByteIdentical compares against the local farm: the
// soak's sequential reference (cells observed and folded without the
// wire) is internal to checkfarm, where TestFoldMatchesLocalFarmSoak pins
// the local farm to it.
func TestDistributedSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak differential is not -short")
	}
	cfg := checkfarm.SoakConfig{
		Engines:  []string{"gl", "norec"},
		Criteria: []spec.Criterion{spec.DUOpacity, spec.Serializability},
		Rounds:   2,
		Seed:     11,
	}
	job, err := checkfarm.JobSpec{Kind: checkfarm.KindSoak, Soak: &checkfarm.SoakJob{Config: cfg}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	local, err := job.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := checkfarm.FormatJobReport(job, local)

	_, c := startFarm(t, Config{LeaseTTL: 5 * time.Second}, 2)
	st := submitAndWait(t, c, job)
	if st.Formatted != want {
		t.Fatalf("distributed soak diverged:\nlocal:\n%s\ndistributed:\n%s", want, st.Formatted)
	}
}

// TestWorkerDiesMidRunRequeues kills a worker holding a lease (it leases
// and never returns) while a healthy worker keeps polling: the lease
// expires, the healthy worker completes the shard, and nothing degrades.
func TestWorkerDiesMidRunRequeues(t *testing.T) {
	s, c := startFarm(t, Config{LeaseTTL: 150 * time.Millisecond}, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, _, err := c.Submit(ctx, checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker grabs the shard and dies (no heartbeat).
	g, ok, err := c.Lease(ctx, LeaseRequest{Worker: "doomed"})
	if err != nil || !ok {
		t.Fatalf("doomed lease: %v ok=%v", err, ok)
	}
	_ = g
	// A healthy worker joins after the fact.
	go func() {
		w := &Worker{Client: c, Name: "healthy", Poll: 10 * time.Millisecond}
		_ = w.Run(ctx)
	}()

	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Degraded != 0 {
		t.Fatalf("requeue after worker death failed: %+v", st)
	}
	if s.Metrics.LeasesExpired.Load() < 1 || s.Metrics.ShardsRequeued.Load() < 1 {
		t.Fatalf("expiry not recorded: expired=%d requeued=%d",
			s.Metrics.LeasesExpired.Load(), s.Metrics.ShardsRequeued.Load())
	}
}

// TestAllWorkersDeadDegrades: with every worker dead, the janitor alone
// burns the attempts and the job completes with explicit degraded
// artifacts — never a hung or failed coordinator.
func TestAllWorkersDeadDegrades(t *testing.T) {
	s, c := startFarm(t, Config{LeaseTTL: 60 * time.Millisecond}, 0)
	s.mu.Lock()
	s.attempts = 2
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, _, err := c.Submit(ctx, checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Two doomed workers each lease and die; the janitor (ExpireLoop)
	// reclaims both grants with no one left polling.
	for i := 0; i < 2; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, ok, err := c.Lease(ctx, LeaseRequest{Worker: fmt.Sprintf("doomed%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard never became leasable for doomed worker %d", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Degraded != 1 {
		t.Fatalf("dead-fleet job status: %+v", st)
	}
	if !strings.Contains(st.Formatted, "degraded") {
		t.Fatalf("report hides the degradation:\n%s", st.Formatted)
	}
	if s.Metrics.ShardsDegraded.Load() != 1 {
		t.Fatalf("ShardsDegraded = %d, want 1", s.Metrics.ShardsDegraded.Load())
	}
}

// TestHealthzStatsz smoke-tests the ops surface end to end.
func TestHealthzStatsz(t *testing.T) {
	s, c := startFarm(t, Config{}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for s.Metrics.LeasePollsParked.Load() == 0 { // the idle worker's poll is held, not bounced
		if ctx.Err() != nil {
			t.Fatal("the idle worker's lease poll was never parked")
		}
		time.Sleep(time.Millisecond)
	}
	submitAndWait(t, c, checkJobSpec("write 1 X 1\ncommit 1\n"))
	snap, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs.Submitted != 1 || snap.Jobs.Done != 1 || snap.Jobs.ShardsDone != 1 {
		t.Fatalf("statsz wrong: %+v", snap.Jobs)
	}
	if snap.Jobs.Open != 0 {
		t.Fatalf("finished job still open in statsz: %+v", snap.Jobs)
	}
	if snap.Jobs.LeasesGranted != 1 || snap.Jobs.ShardsGranted != 1 || snap.Jobs.LeasePollsParked < 1 {
		t.Fatalf("grant counters wrong: %+v", snap.Jobs)
	}

	// The stream side: when a stream ends its deciders' search and
	// fast-hit counts are folded in, so append latency can be attributed.
	// Figure 4 under du,opacity: five responses per criterion, every one
	// decided by exactly one of the two paths, and du-opacity's refutation
	// at the last of them needs the search.
	sc := dialStream(t, startStreams(t, s), "STREAM du,opacity")
	sc.send(t, "write 1 X 1", "inv tryc 1", "read 2 X 1", "write 3 X 1", "commit 3", "res tryc 1 A", "END")
	if done := lastPrefixed(sc.collect(t), "DONE "); done != "DONE events=10 bad=0 dropped=0 violations=1" {
		t.Fatalf("stream did not complete: %q", done)
	}
	if snap, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st := snap.Streams; st.Events != 10 || st.Searches < 1 || st.FastHits < 1 || st.Searches+st.FastHits != 10 {
		t.Fatalf("statsz stream counters wrong: %+v", st)
	}
	// What the fast path touched, per criterion: committing T3 is a flip
	// with no reader placed after it; aborting T1, whose commit the witness
	// had guessed to explain T2's read, is one that re-checks that read.
	if st := snap.Streams; st.Flips != 4 || st.Moves != 0 || st.ReadsRechecked != 2 || st.RetireProbes != 0 {
		t.Fatalf("statsz flip counters wrong: %+v", st)
	}
	// A retiring stream of serial writers: one flip per commit, no reader
	// to re-check, and a retirement probe only when a transaction has
	// t-completed since the last one that found nothing.
	sc = dialStream(t, startStreams(t, s), "STREAM du retire=2")
	for k := 1; k <= 8; k++ {
		sc.send(t, fmt.Sprintf("write %d X %d", k, k), fmt.Sprintf("commit %d", k))
	}
	sc.send(t, "END")
	if done := lastPrefixed(sc.collect(t), "DONE "); done != "DONE events=32 bad=0 dropped=0 violations=0" {
		t.Fatalf("retiring stream did not complete: %q", done)
	}
	if snap, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st := snap.Streams; st.Flips != 12 || st.ReadsRechecked != 2 || st.RetireProbes < 1 || st.RetireProbes > 8 {
		t.Fatalf("statsz counters after the retiring stream wrong: %+v", st)
	}
	// A committer the witness had aborted, with a reader of the old value
	// placed after it: the commit moves T1 to the end, no flip, nothing
	// re-checked.
	sc = dialStream(t, startStreams(t, s), "STREAM du")
	sc.send(t, "write 1 X 1", "inv tryc 1", "read 2 X 0", "res tryc 1 C", "END")
	if done := lastPrefixed(sc.collect(t), "DONE "); done != "DONE events=6 bad=0 dropped=0 violations=0" {
		t.Fatalf("moving stream did not complete: %q", done)
	}
	if snap, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st := snap.Streams; st.Flips != 12 || st.Moves != 1 || st.ReadsRechecked != 2 {
		t.Fatalf("statsz counters after the moving stream wrong: %+v", st)
	}
}
