package certd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// certifyJobSpec is the benchmark's certify shape at n episodes.
func certifyJobSpec(t testing.TB, n int) checkfarm.JobSpec {
	t.Helper()
	s, err := checkfarm.JobSpec{Kind: checkfarm.KindCertify, Certify: &checkfarm.CertifyJob{
		Config: harness.CertConfig{
			Workload: harness.Workload{Engine: "tl2", Objects: 4, Goroutines: 4, TxnsPerGoroutine: 3, OpsPerTxn: 4, Seed: 11},
			Episodes: n, Interleaved: true,
		},
		Criteria: spec.AllCriteria(),
	}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// certifyOutcomes computes every shard of a certify job.
func certifyOutcomes(t testing.TB, s checkfarm.JobSpec) []ShardOutcome {
	t.Helper()
	outs := make([]ShardOutcome, s.NumShards())
	for i := range outs {
		res, err := s.RunShard(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = ShardOutcome{Shard: i, Result: &res}
	}
	return outs
}

// certifyDelivery is a lease request carrying four certify outcomes and an
// error, as a Worker encodes it.
func certifyDelivery(t testing.TB, jobID, leaseID string) []byte {
	outs := append(certifyOutcomes(t, certifyJobSpec(t, 4)), ShardOutcome{Shard: 4, Err: "shard panicked: boom"})
	return mustJSON(t, LeaseRequest{Worker: "w0", Deliver: &ResultRequest{JobID: jobID, LeaseID: leaseID, Worker: "w0", Outcomes: outs}})
}

// exploreDelivery is a lease request carrying a ple exploration that
// latched a violation, for shard 0.
func exploreDelivery(t testing.TB, jobID, leaseID string) []byte {
	r, err := harness.ExplorePlanCtx(context.Background(), "ple", stm.MustParsePlan("w0\nr0 r0"), harness.ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violation == nil {
		t.Fatalf("ple exploration latched no violation: %+v", r)
	}
	outs := []ShardOutcome{{Shard: 0, Result: &checkfarm.ShardResult{Explore: &r}}}
	return mustJSON(t, LeaseRequest{Worker: "w0", Deliver: &ResultRequest{JobID: jobID, LeaseID: leaseID, Worker: "w0", Outcomes: outs}})
}

// countingHandler counts requests per path as they arrive, and the lease
// requests that carry a delivery.
type countingHandler struct {
	h     http.Handler
	mu    sync.Mutex
	paths map[string]int
	carry int
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var carried bool
	if r.URL.Path == "/v1/lease" {
		body, _ := io.ReadAll(r.Body)
		var lr struct {
			Deliver json.RawMessage `json:"deliver"`
		}
		carried = json.Unmarshal(body, &lr) == nil && len(lr.Deliver) > 0
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	c.mu.Lock()
	c.paths[r.URL.Path]++
	if carried {
		c.carry++
	}
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

// TestOneExchangePerGrant: two healthy workers' 200-episode certify job
// costs one lease request per grant plus the idle polls — every grant's
// outcomes ride on one later lease request, no request of another route
// carries them, and no lease expires — and the served report is the
// in-process fold's.
func TestOneExchangePerGrant(t *testing.T) {
	job := certifyJobSpec(t, 200)
	local, err := job.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := checkfarm.FormatJobReport(job, local)

	s := NewServer(Config{LeaseTTL: 5 * time.Second})
	ch := &countingHandler{h: s.Handler(), paths: map[string]int{}}
	ts := httptest.NewServer(ch)
	defer ts.Close()
	c := &Client{Base: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 2
	for i := 0; i < workers; i++ {
		w := &Worker{Client: c, Name: fmt.Sprintf("w%d", i), Poll: 20 * time.Millisecond}
		go func() { _ = w.Run(ctx) }()
	}
	st := submitAndWait(t, c, job)
	// Counted now, before the workers stop: a stopping worker sends again
	// the delivery of a request its stop cut short.
	ch.mu.Lock()
	paths, carried := maps.Clone(ch.paths), ch.carry
	ch.mu.Unlock()
	if st.Formatted != want {
		t.Fatalf("served report diverged from the in-process fold:\nlocal:\n%s\nserved:\n%s", want, st.Formatted)
	}

	m := &s.Metrics
	grants, parked := m.LeasesGranted.Load(), m.LeasePollsParked.Load()
	t.Logf("%d grants of %d shards; %d lease requests, %d carrying a delivery, %d parked; requests by path %v",
		grants, m.ShardsGranted.Load(), paths["/v1/lease"], carried, parked, paths)
	if int64(carried) != grants {
		t.Errorf("%d lease requests carried a delivery for %d grants", carried, grants)
	}
	// A lease request is a grant, a worker's last delivery (answered 204)
	// or an idle poll, parked or answered at once; each worker's first
	// request carries nothing.
	if leases := int64(paths["/v1/lease"]); leases > grants+workers+parked {
		t.Errorf("%d lease requests for %d grants, %d workers and %d parked polls", leases, grants, workers, parked)
	}
	for path, n := range paths {
		if path != "/v1/lease" && path != "/v1/jobs" && path != "/v1/heartbeat" && !strings.HasPrefix(path, "/v1/jobs/") {
			t.Errorf("%d requests to %s", n, path)
		}
	}
	if m.LeasesExpired.Load() != 0 || m.ShardsRequeued.Load() != 0 || m.ShardsDone.Load() != 200 {
		t.Errorf("a healthy run expired %d leases, requeued %d shards, finished %d", m.LeasesExpired.Load(), m.ShardsRequeued.Load(), m.ShardsDone.Load())
	}
}

// TestStoppingWorkerDelivers: a worker stopped mid-grant sends the shard
// it finished on a delivery-only lease request and hands the rest back —
// done or requeued at once, no lease left to expire, nothing more granted
// to it.
func TestStoppingWorkerDelivers(t *testing.T) {
	s := NewServer(Config{LeaseTTL: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A ten-shard check job whose probe grant a helper delivers, so the
	// worker's grant is a batch; the worker stops inside its second shard.
	id, _, err := s.Submit(checkJobSpec(smallHistories(10)...))
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, s, poll(s, "helper"), "helper")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var computed []int
	w := &Worker{Client: &Client{Base: ts.URL}, Name: "stopping", Poll: 10 * time.Millisecond}
	w.runShard = func(s checkfarm.JobSpec, ctx context.Context, shard int) (checkfarm.ShardResult, error) {
		if computed = append(computed, shard); len(computed) == 2 {
			cancel()
		}
		return s.RunShard(ctx, shard)
	}
	if err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("Run: %v", err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	m := &s.Metrics
	granted := m.ShardsGranted.Load() - 1 // less the helper's probe
	t.Logf("computed %v of a %d-shard grant; %+v", computed, granted, st)
	if m.LeasesGranted.Load() != 2 || granted < 2 || len(computed) != 2 {
		t.Fatalf("the worker took %d grants of %d shards and computed %v", m.LeasesGranted.Load()-1, granted, computed)
	}
	if st.Done != 2 || st.Leased != 0 || m.ShardsRequeued.Load() != granted-1 {
		t.Fatalf("a stopped worker left %d shards done, %d leased, %d requeued", st.Done, st.Leased, m.ShardsRequeued.Load())
	}
	if m.LeasesExpired.Load() != 0 || s.Stats().Jobs.LeasesOutstanding != 0 {
		t.Fatalf("a stopping worker's lease is left to expire: %+v", s.Stats().Jobs)
	}
}
