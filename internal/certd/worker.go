package certd

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"duopacity/internal/checkfarm"
)

// Worker is a pull-based shard computer: it polls the coordinator for
// grants, heartbeats while computing one, and sends the outcomes (results,
// or errors — which the coordinator requeues) with its next lease
// request, so a grant costs one exchange. Workers hold no job state;
// killing one mid-grant costs the shards of that grant it had not
// delivered, for at most the lease TTL, and stopping one (ctx ending)
// costs nothing: it delivers what it holds and hands back the rest.
type Worker struct {
	Client *Client
	// Name identifies the worker in leases and degradation artifacts.
	Name string
	// Poll is how long the coordinator may hold a lease poll while it has
	// no work (default 100ms); an idle worker asks once per Poll.
	Poll time.Duration

	runShard func(checkfarm.JobSpec, context.Context, int) (checkfarm.ShardResult, error) // nil: JobSpec.RunShard; tests stop a worker mid-grant with it
}

// stopDelivery bounds a stopping worker's last, delivery-only request.
const stopDelivery = 3 * time.Second

// Run pulls and computes grants until ctx ends or the coordinator
// becomes unreachable twice in a row (a drained coordinator answers
// polls with no work, which keeps the worker alive and idle). A delivery
// whose request failed in transport rides on the next request again; one
// the coordinator refused is dropped, since it would be refused again,
// and the lease's expiry requeues its shards. When ctx ends, the outcomes
// still held go out on a delivery-only request.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	consecutiveErrs := 0
	var deliver *ResultRequest // outcomes no lease request has carried yet
	for {
		if ctx.Err() != nil {
			return w.stop(ctx, deliver)
		}
		asked := time.Now()
		grant, ok, err := w.Client.Lease(ctx, LeaseRequest{Worker: w.Name, WaitMillis: poll.Milliseconds(), Deliver: deliver})
		var refused *refusedError
		switch {
		case err == nil:
			consecutiveErrs = 0
			deliver = nil
		case ctx.Err() != nil:
			return w.stop(ctx, deliver)
		default:
			if errors.As(err, &refused) {
				deliver = nil
			}
			if consecutiveErrs++; consecutiveErrs >= 2 {
				return fmt.Errorf("certd worker %s: coordinator unreachable: %w", w.Name, err)
			}
		}
		if ok {
			deliver = w.runGrant(ctx, grant)
			continue
		}
		// The coordinator normally holds an idle poll for the whole of Poll.
		// When it answers sooner — it is draining, or the request failed —
		// wait the rest out here rather than ask again at once.
		t := time.NewTimer(poll - time.Since(asked))
		select {
		case <-ctx.Done():
			t.Stop()
			return w.stop(ctx, deliver)
		case <-t.C:
		}
	}
}

// stop sends the outcomes a stopping worker still holds on a
// delivery-only lease request, retried once after a transport failure,
// and returns ctx's error.
func (w *Worker) stop(ctx context.Context, deliver *ResultRequest) error {
	if deliver != nil {
		dctx, cancel := context.WithTimeout(context.Background(), stopDelivery)
		defer cancel()
		req := LeaseRequest{Worker: w.Name, Deliver: deliver, DeliverOnly: true}
		var refused *refusedError
		if _, _, err := w.Client.Lease(dctx, req); err != nil && !errors.As(err, &refused) {
			_, _, _ = w.Client.Lease(dctx, req)
		}
	}
	return ctx.Err()
}

// runGrant computes the shards of one grant in order, under one heartbeat
// loop at TTL/3, and returns their outcomes for the next lease request (nil
// when there are none). A crashing shard becomes an error outcome — the
// coordinator requeues or degrades it — instead of killing the worker
// loop. Stopped mid-grant (ctx ending), it hands the shards it has not
// finished back as error outcomes, so the coordinator requeues them now
// rather than when the lease expires.
func (w *Worker) runGrant(ctx context.Context, g *LeaseGrant) *ResultRequest {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	ttl := time.Duration(g.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	var gone atomic.Bool // set when a heartbeat learns the lease was reclaimed
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if alive, err := w.Client.Heartbeat(hbCtx, g.LeaseID); err == nil && !alive {
					gone.Store(true)
					return
				}
			}
		}
	}()

	req := &ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: w.Name, Outcomes: make([]ShardOutcome, 0, len(g.Shards))}
	for _, shard := range g.Shards {
		if gone.Load() {
			break // the rest is requeued already; computing it would only race the new owner
		}
		o := ShardOutcome{Shard: shard, Err: "worker stopping"}
		if ctx.Err() == nil {
			res, err := w.computeShard(ctx, g, shard)
			switch {
			case ctx.Err() != nil: // stopped inside the shard: what came back may be cut short
			case err != nil:
				o.Err = err.Error()
			default:
				o.Result, o.Err = &res, ""
			}
		}
		req.Outcomes = append(req.Outcomes, o)
	}
	if len(req.Outcomes) == 0 {
		return nil
	}
	return req
}

func (w *Worker) computeShard(ctx context.Context, g *LeaseGrant, shard int) (res checkfarm.ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panicked: %v\n%s", r, debug.Stack())
		}
	}()
	run := checkfarm.JobSpec.RunShard
	if w.runShard != nil {
		run = w.runShard
	}
	return run(g.Spec, ctx, shard)
}
