package certd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serve sends one request through the coordinator's Handler. Its context
// is already cancelled, so a long poll answers at once.
func serve(h http.Handler, method, route string, body []byte) *httptest.ResponseRecorder {
	u, err := url.ParseRequestURI(route)
	if err != nil {
		u = &url.URL{Path: route}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := (&http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Host:       "certd.test",
		RequestURI: route,
	}).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJSONRoutes: the three JSON routes share one decode path — 405 to
// anything but POST, 400 to a body that is not their request — and a
// draining coordinator refuses a job with 503. A lease request's delivery
// is applied once however often it arrives, and one that does not verify
// is refused whole, with nothing applied and nothing granted.
func TestJSONRoutes(t *testing.T) {
	s := clockedServer(Config{LeaseTTL: time.Second}, newFakeClock())
	h := s.Handler()
	if _, _, err := s.Submit(checkJobSpec(smallHistories(2)...)); err != nil {
		t.Fatal(err)
	}
	g := poll(s, "w1")
	delivery := &ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Outcomes: outcomes(t, g, g.Shards...)}
	valid := map[string][]byte{
		"/v1/jobs":      mustJSON(t, SubmitRequest{Spec: checkJobSpec(smallHistories(1)...)}),
		"/v1/lease":     mustJSON(t, LeaseRequest{Worker: "w2"}),
		"/v1/heartbeat": mustJSON(t, HeartbeatRequest{LeaseID: g.LeaseID}),
		"deliver":       mustJSON(t, LeaseRequest{Worker: "w1", Deliver: delivery}),
		"deliver-only":  mustJSON(t, LeaseRequest{Worker: "w1", Deliver: delivery, DeliverOnly: true}),
	}
	// Both outcomes are well formed but for shard 9 of a two-shard job: the
	// first must not be applied either.
	badShard := mustJSON(t, LeaseRequest{Worker: "w1", Deliver: &ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID,
		Outcomes: append(outcomes(t, g, g.Shards...), ShardOutcome{Shard: 9, Err: "boom"})}})
	both := mustJSON(t, LeaseRequest{Worker: "w1", Deliver: &ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID,
		Outcomes: []ShardOutcome{{Shard: 0, Result: delivery.Outcomes[0].Result, Err: "boom"}}}})
	for _, tc := range []struct {
		method, route string
		body          []byte
		code          int
	}{
		{http.MethodGet, "/v1/jobs", valid["/v1/jobs"], http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/lease", valid["/v1/lease"], http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/heartbeat", valid["/v1/heartbeat"], http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/lease", valid["deliver"], http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs", []byte(`{"spec":`), http.StatusBadRequest},
		{http.MethodPost, "/v1/lease", []byte(`[]`), http.StatusBadRequest},
		{http.MethodPost, "/v1/heartbeat", []byte(`{"lease_id":7}`), http.StatusBadRequest},
		{http.MethodPost, "/v1/lease", nil, http.StatusBadRequest},
		{http.MethodPost, "/v1/lease", []byte(`{"worker":"w1","deliver":{"job_id":"j1","outcomes":[{"shard":0,"result":{"episode":"x"}}]}}`), http.StatusBadRequest},
		{http.MethodPost, "/v1/lease", badShard, http.StatusBadRequest},
		{http.MethodPost, "/v1/lease", both, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", valid["/v1/jobs"], http.StatusOK},
		{http.MethodPost, "/v1/lease", valid["/v1/lease"], http.StatusOK},
		{http.MethodPost, "/v1/heartbeat", valid["/v1/heartbeat"], http.StatusOK},
		{http.MethodPost, "/v1/lease", valid["deliver"], http.StatusOK},             // delivered, then granted the second job
		{http.MethodPost, "/v1/lease", valid["deliver"], http.StatusNoContent},      // a duplicate, and nothing left to grant
		{http.MethodPost, "/v1/lease", valid["deliver-only"], http.StatusNoContent}, // a duplicate, and no grant asked for
	} {
		if rec := serve(h, tc.method, tc.route, tc.body); rec.Code != tc.code {
			t.Errorf("%s %s %.40q: %d %q, want %d", tc.method, tc.route, tc.body, rec.Code, rec.Body, tc.code)
		}
	}
	if m := &s.Metrics; m.JobsSubmitted.Load() != 2 || m.LeasesGranted.Load() != 3 || m.ShardsDone.Load() != 1 || m.ShardsRequeued.Load() != 0 {
		t.Errorf("refused requests reached the lease machine: %+v", s.Stats().Jobs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := serve(h, http.MethodPost, "/v1/jobs", valid["/v1/jobs"]); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d %q, want 503", rec.Code, rec.Body)
	}
}

// TestSubmitRefusesOversizedJobs: a spec asking for more than
// maxJobShards shards is refused with 400 before the coordinator
// allocates its bookkeeping — certify episodes come straight from the
// request, and a soak's cells are counted without being built, so a
// round count that overflows the count is refused too.
func TestSubmitRefusesOversizedJobs(t *testing.T) {
	s := NewServer(Config{})
	h := s.Handler()
	for _, spec := range []string{
		`{"kind":"certify","certify":{"config":{"Engine":"tl2","Episodes":134217728},"criteria":["du"]}}`,
		`{"kind":"certify","certify":{"config":{"Engine":"tl2","Episodes":1048577},"criteria":["du"]}}`,
		`{"kind":"soak","soak":{"config":{"Engines":["gl","ple"],"Rounds":262145}}}`,
		`{"kind":"soak","soak":{"config":{"Rounds":4611686018427387904}}}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(h, http.MethodPost, "/v1/jobs", []byte(`{"spec":`+spec+`}`))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "shards") {
			t.Errorf("%s: %d %q, want 400 naming the shard cap", spec, rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", spec, grew)
		}
	}
	if n := s.Metrics.JobsSubmitted.Load(); n != 0 {
		t.Fatalf("%d oversized jobs were accepted", n)
	}
	// The cap itself is a job like any other.
	if rec := serve(h, http.MethodPost, "/v1/jobs", []byte(`{"spec":{"kind":"soak","soak":{"config":{"Engines":["gl","ple"],"Rounds":262144}}}}`)); rec.Code != http.StatusOK {
		t.Fatalf("a job of exactly maxJobShards shards: %d %q", rec.Code, rec.Body)
	}
}

// TestJSONRoutesRefuseOversizedBodies: every JSON route stops reading a
// body at maxBodyBytes and answers 413, before the request reaches the
// lease machine, whether the body would have decoded or not.
func TestJSONRoutesRefuseOversizedBodies(t *testing.T) {
	s := NewServer(Config{})
	h := s.Handler()
	// A check job whose one history is a string just past the limit.
	body := append([]byte(`{"spec":{"kind":"check","check":{"histories":["`), bytes.Repeat([]byte{'x'}, maxBodyBytes)...)
	body = append(body, `"],"criteria":["du"]}}}`...)
	for _, route := range []string{"/v1/jobs", "/v1/lease", "/v1/heartbeat"} {
		if rec := serve(h, http.MethodPost, route, body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %d %.80q, want 413", route, len(body), rec.Code, rec.Body)
		}
	}
	if n := s.Metrics.JobsSubmitted.Load(); n != 0 {
		t.Fatalf("an oversized body submitted %d jobs", n)
	}
}

// FuzzCoordinatorHTTP sends arbitrary routes, methods and bodies through
// the Handler of a coordinator with a live job and an outstanding grant:
// no request may get a 5xx answer or break the lease machine's invariants.
// Lease bodies carrying a delivery — of check verdicts, an error, and a
// certify episode in the compact grammar — are among the seeds.
func FuzzCoordinatorHTTP(f *testing.F) {
	results := walkResults(f, exhaustiveShards)
	// setup is the same coordinator for every input: job j1, its probe
	// shard 0 leased to w0.
	setup := func(t testing.TB) (*walk, *LeaseGrant) {
		w := newWalk(t, results, 2)
		w.submit(exhaustiveShards)
		w.poll("w0")
		return w, w.grants[0]
	}
	w, g := setup(f)
	for _, seed := range []struct {
		method, route string
		body          []byte
	}{
		{http.MethodPost, "/v1/lease", mustJSON(f, LeaseRequest{Worker: "w1", WaitMillis: 50})},
		{http.MethodPost, "/v1/heartbeat", mustJSON(f, HeartbeatRequest{LeaseID: g.LeaseID})},
		{http.MethodPost, "/v1/lease", mustJSON(f, LeaseRequest{Worker: "w0", Deliver: &ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: "w0", Outcomes: []ShardOutcome{{Shard: 0, Result: w.results[0]}}}})},
		{http.MethodPost, "/v1/lease", mustJSON(f, LeaseRequest{Worker: "w0", Deliver: &ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: "w0", Outcomes: []ShardOutcome{{Shard: 0, Err: "boom"}}}, DeliverOnly: true})},
		{http.MethodPost, "/v1/jobs", mustJSON(f, SubmitRequest{Spec: g.Spec})},
		{http.MethodGet, "/v1/jobs/" + g.JobID + "?wait_millis=50", nil},
		{http.MethodGet, "/statsz", nil},
		{http.MethodGet, "/healthz", nil},
		{http.MethodPost, "/v1/lease", certifyDelivery(f, g.JobID, g.LeaseID)},
		{http.MethodPost, "/v1/lease", exploreDelivery(f, g.JobID, g.LeaseID)},
	} {
		f.Add(seed.method, seed.route, seed.body)
	}
	f.Fuzz(func(t *testing.T, method, route string, body []byte) {
		w, _ := setup(t)
		if rec := serve(w.s.Handler(), method, route, body); rec.Code >= 500 {
			t.Fatalf("%s %q %q: %d %q", method, route, body, rec.Code, rec.Body)
		}
		w.check()
	})
}
