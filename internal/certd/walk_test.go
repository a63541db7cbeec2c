package certd

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
)

// TestLeaseMachineWalk drives seeded random interleavings of everything a
// fleet can do to the coordinator — poll, deliver a whole grant, part of
// one, an error, a duplicate, a stale delivery; fall silent past the TTL;
// heartbeat; submit a second job; drain — against small jobs on the fake
// clock, and checks the lease machine's invariants after every step: a
// shard is in exactly one of {queued once, under one live lease, done},
// the leased gauges agree with the leases, the first resolution of a shard
// stands, and every job folds with each shard resolved exactly once.
func TestLeaseMachineWalk(t *testing.T) {
	walks := 1500
	if testing.Short() {
		walks = 300
	}
	const maxShards = 6
	base, err := checkJobSpec(smallHistories(maxShards)...).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*checkfarm.ShardResult, maxShards)
	for i := range results {
		res, err := base.RunShard(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = &res
	}
	// What the walks reached, summed: a walk that never batches, expires,
	// degrades or drains would pass without testing anything.
	var batches, expired, requeued, degraded, drains int64
	for seed := 0; seed < walks; seed++ {
		w := &walk{t: t, rng: rand.New(rand.NewSource(int64(seed))), results: results, first: map[string]*checkfarm.ShardResult{}}
		w.run(seed)
		m := &w.s.Metrics
		batches += m.ShardsGranted.Load() - m.LeasesGranted.Load()
		expired += m.LeasesExpired.Load()
		requeued += m.ShardsRequeued.Load()
		degraded += m.ShardsDegraded.Load()
		if w.s.Stats().Draining {
			drains++
		}
	}
	t.Logf("%d walks: %d shards rode in a batch, %d leases expired, %d shards requeued, %d degraded, %d drains",
		walks, batches, expired, requeued, degraded, drains)
	if batches == 0 || expired == 0 || requeued == 0 || degraded == 0 || drains == 0 {
		t.Fatal("the walks never reached one of the paths they exist to cover")
	}
}

type walk struct {
	t       *testing.T
	rng     *rand.Rand
	results []*checkfarm.ShardResult
	s       *Server
	clk     *fakeClock
	jobs    []string
	grants  []*LeaseGrant   // every grant ever received, live or not
	sent    []ResultRequest // every delivery ever made
	first   map[string]*checkfarm.ShardResult
	trace   []string
}

func (w *walk) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf(format, args...))
}

func (w *walk) failf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s\nsteps:\n  %s", fmt.Sprintf(format, args...), strings.Join(w.trace, "\n  "))
}

func (w *walk) submit() {
	n := len(w.results) - w.rng.Intn(3)*w.rng.Intn(3) // mostly big enough to batch; down to 2
	id, _, err := w.s.Submit(checkJobSpec(smallHistories(n)...))
	if err != nil {
		w.failf("Submit: %v", err)
	}
	w.jobs = append(w.jobs, id)
	w.logf("submit %s (%d shards)", id, n)
}

// send delivers outcomes for the named shards of a grant; errShard (or -1)
// is reported failed.
func (w *walk) send(g *LeaseGrant, shards []int, errShard int) {
	req := ResultRequest{JobID: g.JobID, LeaseID: g.LeaseID, Worker: "w"}
	for _, shard := range shards {
		o := ShardOutcome{Shard: shard, Result: w.results[shard]}
		if shard == errShard {
			o = ShardOutcome{Shard: shard, Err: "boom"}
		}
		req.Outcomes = append(req.Outcomes, o)
	}
	w.resend(req)
}

func (w *walk) resend(req ResultRequest) {
	if err := w.s.Result(req); err != nil {
		w.failf("Result(%+v): %v", req, err)
	}
	w.sent = append(w.sent, req)
}

func (w *walk) run(seed int) {
	workers := 1 + w.rng.Intn(3)
	attempts := 1 + w.rng.Intn(2)
	const ttl = time.Second
	w.clk = newFakeClock()
	w.s = NewServer(Config{LeaseTTL: ttl, MaxShardAttempts: attempts, Clock: w.clk.Now})
	w.logf("seed %d: %d workers, %d attempts", seed, workers, attempts)
	w.submit()

	drained := false
	for step := 0; step < 40 && !drained; step++ {
		var g *LeaseGrant
		if len(w.grants) > 0 {
			g = w.grants[w.rng.Intn(len(w.grants))]
		}
		switch op := w.rng.Intn(20); {
		case op < 7:
			worker := fmt.Sprintf("w%d", w.rng.Intn(workers))
			if got := poll(w.s, worker); got != nil {
				w.grants = append(w.grants, got)
				w.logf("%s leases %s %v as %s", worker, got.JobID, got.Shards, got.LeaseID)
			}
		case op < 10 && g != nil:
			w.logf("deliver all of %s", g.LeaseID)
			w.send(g, g.Shards, -1)
		case op < 12 && g != nil:
			k := 1 + w.rng.Intn(len(g.Shards))
			w.logf("deliver %v of %s", g.Shards[:k], g.LeaseID)
			w.send(g, g.Shards[:k], -1)
		case op < 14 && g != nil:
			bad := g.Shards[w.rng.Intn(len(g.Shards))]
			shards := g.Shards
			if w.rng.Intn(2) == 0 {
				shards = []int{bad} // the rest of the grant stays owed
			}
			w.logf("deliver %v of %s, shard %d failed", shards, g.LeaseID, bad)
			w.send(g, shards, bad)
		case op < 15 && len(w.sent) > 0:
			req := w.sent[w.rng.Intn(len(w.sent))]
			w.logf("redeliver %s %+v", req.LeaseID, req.Outcomes)
			w.resend(req)
		case op < 16:
			w.logf("clock +1.5 TTL, expire")
			w.clk.Advance(ttl + ttl/2)
			w.s.Expire()
		case op < 18:
			w.clk.Advance(ttl / 4)
			if g != nil {
				w.logf("clock +TTL/4, heartbeat %s: %v", g.LeaseID, w.s.Heartbeat(g.LeaseID))
			}
		case op < 19 && len(w.jobs) < 2:
			w.submit()
		case op == 19 && step > 25:
			w.logf("drain")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := w.s.Drain(ctx); err != nil {
				w.failf("Drain: %v", err)
			}
			cancel()
			drained = true
		}
		w.check()
	}

	// Whatever is still open completes: a healthy worker takes everything
	// grantable, and what dead workers hold expires back to it.
	for round := 0; !drained && !w.allDone(); round++ {
		if round > 4*len(w.results)*attempts {
			w.failf("jobs did not complete")
		}
		if g := poll(w.s, "closer"); g != nil {
			w.logf("closer leases %s %v as %s", g.JobID, g.Shards, g.LeaseID)
			w.send(g, g.Shards, -1)
		} else {
			w.logf("closer: nothing grantable; clock +1.5 TTL")
			w.clk.Advance(ttl + ttl/2)
			w.s.Expire()
		}
		w.check()
	}
	if g := poll(w.s, "late"); g != nil {
		w.failf("granted %+v with every job complete", g.Shards)
	}
	for _, id := range w.jobs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, _, err := w.s.Report(ctx, id); err != nil {
			w.failf("job %s did not fold: %v", id, err)
		}
		cancel()
	}
	w.check()
}

func (w *walk) allDone() bool {
	for _, id := range w.jobs {
		if st, _ := w.s.Status(id); st.Done != st.Shards {
			return false
		}
	}
	return true
}

// check asserts the invariants of the lease machine on its internal state
// and on what Status and Stats show of it.
func (w *walk) check() {
	w.t.Helper()
	s := w.s
	s.mu.Lock()
	underLease := map[*job]int{}
	for id, l := range s.leases {
		open := 0
		for _, shard := range l.shards {
			if l.job.owner[shard] == l {
				open++
			}
		}
		if l.id != id || open != l.open || open == 0 {
			s.mu.Unlock()
			w.failf("lease %s: id %s, open %d, owns %d", id, l.id, l.open, open)
		}
		underLease[l.job] += open
	}
	var doneAll, grantedAll int64
	leased := map[string]int{}
	var problems []string
	for _, j := range s.jobs {
		queued := map[int]int{}
		for _, shard := range j.pending {
			queued[shard]++
		}
		nLeased, nDone, nPending := 0, 0, 0
		for shard, state := range j.state {
			key := fmt.Sprintf("%s/%d", j.id, shard)
			l := j.owner[shard]
			ok := true
			switch state {
			case shardPending:
				nPending++
				ok = queued[shard] == 1 && l == nil && j.results[shard] == nil && !s.draining
			case shardLeased:
				nLeased++
				ok = queued[shard] == 0 && l != nil && s.leases[l.id] == l && j.results[shard] == nil
			case shardDone:
				nDone++
				ok = queued[shard] == 0 && l == nil && j.results[shard] != nil
				if first := w.first[key]; first == nil {
					w.first[key] = j.results[shard]
				} else if first != j.results[shard] {
					problems = append(problems, key+" was resolved a second time")
				}
			}
			if !ok || j.attempts[shard] > s.cfg.MaxShardAttempts {
				problems = append(problems, fmt.Sprintf("%s: state %d, queued %d times, owner %v, attempts %d", key, state, queued[shard], l, j.attempts[shard]))
			}
			grantedAll += int64(j.attempts[shard])
		}
		if nPending != len(j.pending) || nLeased != j.leased || nLeased != underLease[j] || nDone != j.done {
			problems = append(problems, fmt.Sprintf("%s: pending %d/%d, leased %d/%d/%d, done %d/%d",
				j.id, nPending, len(j.pending), nLeased, j.leased, underLease[j], nDone, j.done))
		}
		leased[j.id] = nLeased
		doneAll += int64(nDone)
	}
	liveLeases := int64(len(s.leases))
	s.mu.Unlock()
	if len(problems) > 0 {
		w.failf("%s", strings.Join(problems, "\n"))
	}

	for _, id := range w.jobs {
		if st, err := s.Status(id); err != nil || st.Leased != leased[id] {
			w.failf("Status(%s) = %+v, %v; %d shards are under live leases", id, st, err, leased[id])
		}
	}
	snap := s.Stats()
	if snap.Jobs.LeasesOutstanding != liveLeases || snap.Jobs.ShardsDone != doneAll || snap.Jobs.ShardsGranted != grantedAll {
		w.failf("statsz %+v; %d live leases, %d shards done, %d shard grants", snap.Jobs, liveLeases, doneAll, grantedAll)
	}
}
