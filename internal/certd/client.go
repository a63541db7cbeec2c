package certd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"duopacity/internal/checkfarm"
)

// Client talks to a coordinator's HTTP surface. Base is the coordinator
// URL without a trailing slash ("http://host:port").
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	// Read the body out before closing it, on every status: net/http only
	// reuses a keep-alive connection whose response was consumed.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	case http.StatusNoContent:
		return errNoContent
	case http.StatusGone:
		return errGone
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("certd: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
}

var (
	errNoContent = fmt.Errorf("certd: no content")
	errGone      = fmt.Errorf("certd: lease gone")
)

// Submit sends a job and returns its id and shard count.
func (c *Client) Submit(ctx context.Context, spec checkfarm.JobSpec) (string, int, error) {
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", SubmitRequest{Spec: spec}, &resp); err != nil {
		return "", 0, err
	}
	return resp.ID, resp.Shards, nil
}

// Lease pulls one grant; the coordinator may hold the request for up to
// hold while it has nothing to hand out. ok is false when it had no work.
func (c *Client) Lease(ctx context.Context, worker string, hold time.Duration) (*LeaseGrant, bool, error) {
	var g LeaseGrant
	err := c.do(ctx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: worker, WaitMillis: hold.Milliseconds()}, &g)
	if err == errNoContent {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return &g, true, nil
}

// Heartbeat extends a lease; ok is false when the lease is gone and the
// worker should abandon the grant.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) (bool, error) {
	err := c.do(ctx, http.MethodPost, "/v1/heartbeat", HeartbeatRequest{LeaseID: leaseID}, nil)
	if err == errGone {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Result delivers the outcomes of a grant (idempotent on the coordinator).
func (c *Client) Result(ctx context.Context, req ResultRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/result", req, nil)
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob returns once the job reaches a terminal state. It asks with
// wait_millis=poll, so the coordinator holds each request until the fold
// lands: the answer arrives when the job is done, not a poll later.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	path := fmt.Sprintf("/v1/jobs/%s?wait_millis=%d", id, max(poll.Milliseconds(), 1))
	for {
		var st JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
			return nil, err
		}
		if st.State == JobDone || st.State == JobFailed {
			return &st, nil
		}
	}
}

// Stats fetches the /statsz snapshot.
func (c *Client) Stats(ctx context.Context) (*StatsSnapshot, error) {
	var s StatsSnapshot
	if err := c.do(ctx, http.MethodGet, "/statsz", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
