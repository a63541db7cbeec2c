package certd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync/atomic"
	"testing"
)

// TestClientKeepAlive: every status path of Client.do reads the response
// out, so a whole worker conversation — leases carrying results,
// heartbeats, a 204, a 410, an error — rides one connection. A body
// closed unread costs a fresh TCP dial per request.
func TestClientKeepAlive(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: &http.Client{Transport: &http.Transport{}}}
	defer c.HTTP.CloseIdleConnections()

	var dials atomic.Int32
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dials.Add(1)
			}
		},
	})

	const cycles = 12
	id, _, err := c.Submit(ctx, checkJobSpec(smallHistories(cycles)...))
	if err != nil {
		t.Fatal(err)
	}
	var last *LeaseGrant
	var deliver *ResultRequest
	for done := 0; done < cycles; {
		g, ok, err := c.Lease(ctx, LeaseRequest{Worker: "w", Deliver: deliver})
		if err != nil || !ok {
			t.Fatalf("lease after %d shards: ok=%v err=%v", done, ok, err)
		}
		if alive, err := c.Heartbeat(ctx, g.LeaseID); err != nil || !alive {
			t.Fatalf("heartbeat: alive=%v err=%v", alive, err)
		}
		deliver = &ResultRequest{JobID: id, LeaseID: g.LeaseID, Worker: "w", Outcomes: outcomes(t, g, g.Shards...)}
		done += len(g.Shards)
		last = g
	}
	if _, ok, err := c.Lease(ctx, LeaseRequest{Worker: "w", Deliver: deliver}); err != nil || ok { // 204
		t.Fatalf("lease on an empty queue: ok=%v err=%v", ok, err)
	}
	if _, _, err := c.Lease(ctx, LeaseRequest{Worker: "w", Deliver: &ResultRequest{JobID: "nope"}}); err == nil { // 400
		t.Fatal("a delivery for an unknown job was accepted")
	}
	if alive, err := c.Heartbeat(ctx, last.LeaseID); err != nil || alive { // 410
		t.Fatalf("heartbeat on a finished lease: alive=%v err=%v", alive, err)
	}
	if _, err := c.Job(ctx, "nope"); err == nil { // 404
		t.Fatal("unknown job answered")
	}
	if st, err := c.WaitJob(ctx, id, 0); err != nil || st.State != JobDone {
		t.Fatalf("WaitJob: %+v, %v", st, err)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n > 1 {
		t.Fatalf("%d connections dialled for one sequential conversation, want 1", n)
	}
}
