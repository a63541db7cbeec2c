package certd

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"duopacity/internal/checkfarm"
)

// Worker is a pull-based shard computer: it polls the coordinator for
// grants, heartbeats while computing one, and posts the outcomes (results,
// or errors — which the coordinator requeues). Workers hold no job state;
// killing one mid-grant costs the shards of that grant it had not
// delivered, for at most the lease TTL.
type Worker struct {
	Client *Client
	// Name identifies the worker in leases and degradation artifacts.
	Name string
	// Poll is how long the coordinator may hold a lease poll while it has
	// no work (default 100ms); an idle worker asks once per Poll.
	Poll time.Duration
}

// Run pulls and computes grants until ctx ends or the coordinator
// becomes unreachable twice in a row (a drained coordinator answers
// polls with no work, which keeps the worker alive and idle).
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	consecutiveErrs := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		asked := time.Now()
		grant, ok, err := w.Client.Lease(ctx, w.Name, poll)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			consecutiveErrs++
			if consecutiveErrs >= 2 {
				return fmt.Errorf("certd worker %s: coordinator unreachable: %w", w.Name, err)
			}
		} else {
			consecutiveErrs = 0
		}
		if ok {
			w.runGrant(ctx, grant)
			continue
		}
		// The coordinator normally holds an idle poll for the whole of Poll.
		// When it answers sooner — it is draining, or the request failed —
		// wait the rest out here rather than ask again at once.
		t := time.NewTimer(poll - time.Since(asked))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// runGrant computes the shards of one grant in order, under one heartbeat
// loop at TTL/3, and delivers their outcomes in one request. A crashing
// shard becomes an error outcome — the coordinator requeues or degrades
// it — instead of killing the worker loop.
func (w *Worker) runGrant(ctx context.Context, g *LeaseGrant) {
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

	req := ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: w.Name, Outcomes: make([]ShardOutcome, 0, len(g.Shards))}
	for _, shard := range g.Shards {
		if gone.Load() {
			break // the rest is requeued already; computing it would only race the new owner
		}
		res, err := w.computeShard(ctx, g, shard)
		if ctx.Err() != nil {
			// Stopped mid-shard: what came back may be cut short, and the
			// rest was not tried. Deliver what is whole; the lease's expiry
			// requeues the remainder.
			break
		}
		o := ShardOutcome{Shard: shard}
		if err != nil {
			o.Err = err.Error()
		} else {
			o.Result = &res
		}
		req.Outcomes = append(req.Outcomes, o)
	}
	stopHB()
	if len(req.Outcomes) == 0 {
		return
	}

	// Best-effort delivery with one retry; past that the lease expiry
	// requeues the shards anyway.
	rctx, cancel := context.WithTimeout(context.Background(), ttl)
	defer cancel()
	if err := w.Client.Result(rctx, req); err != nil {
		_ = w.Client.Result(rctx, req)
	}
}

func (w *Worker) computeShard(ctx context.Context, g *LeaseGrant, shard int) (res checkfarm.ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return g.Spec.RunShard(ctx, shard)
}
