package certd

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
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
// stands, and every job folds with each shard resolved exactly once. Each
// seed runs twice and must replay step for step: the machine is a
// function of its calls and the clock, so a failing seed reproduces.
func TestLeaseMachineWalk(t *testing.T) {
	walks := 1500
	if testing.Short() {
		walks = 300
	}
	const maxShards = 6
	results := walkResults(t, maxShards)
	// What the walks reached, summed: a walk that never batches, expires,
	// degrades or drains would pass without testing anything.
	var r reach
	for seed := 0; seed < walks; seed++ {
		w := randomWalk(t, results, seed)
		again := randomWalk(t, results, seed)
		if !slices.Equal(w.trace, again.trace) {
			t.Fatalf("seed %d does not replay:\n  %s\nthen:\n  %s", seed, strings.Join(w.trace, "\n  "), strings.Join(again.trace, "\n  "))
		}
		r.add(w)
	}
	t.Logf("%d walks, each replayed: %v", walks, r)
	r.require(t)
}

// TestLeaseMachineExhaustive walks every sequence of coordinator calls up
// to a fixed depth instead of sampling them: poll by w0 or w1; deliver the
// latest grant whole, its first shard, or an error on its first shard;
// fall silent past the TTL and expire; heartbeat the latest grant a
// quarter TTL on; submit a second job; drain. Each prefix replays from a
// fresh coordinator, which is sound because the machine is deterministic
// (TestLeaseMachineWalk checks that), and the walk's invariants are
// checked after every step. A prefix that reaches a state already walked
// with as many steps left is not walked again: the same state has the
// same futures. Every path ends with each job completed and folded. Both attempt budgets run: with one attempt a first failure
// degrades, with two it requeues.
func TestLeaseMachineExhaustive(t *testing.T) {
	depth := 6
	if testing.Short() {
		depth = 5
	}
	results := walkResults(t, exhaustiveShards)
	start := time.Now()
	var r reach
	paths, steps := 0, 0
	for attempts := 1; attempts <= 2; attempts++ {
		var prefix []walkOp
		walked := map[string]bool{}
		var visit func()
		visit = func() {
			w := newWalk(t, results, attempts)
			w.submit(exhaustiveShards)
			for _, op := range prefix {
				w.step(op)
				w.check()
				steps++
			}
			left := depth - len(prefix)
			if !w.drained {
				key := fmt.Sprintf("%d steps left, %s", left, w.state())
				if walked[key] {
					return
				}
				walked[key] = true
			}
			if left > 0 && !w.drained {
				for op := walkOp(0); op < numWalkOps; op++ {
					if w.enabled(op) {
						prefix = append(prefix, op)
						visit()
						prefix = prefix[:len(prefix)-1]
					}
				}
				return
			}
			paths++
			r.add(w) // what the path reached, before the close-out adds its own expiries
			w.finish()
		}
		visit()
	}
	t.Logf("depth %d: %d paths, %d steps replayed in %v; %v", depth, paths, steps, time.Since(start).Round(time.Millisecond), r)
	r.require(t)
}

// exhaustiveShards is the first job's size in the exhaustive walk: the
// smallest job whose second grant, after the probe, is a batch
// (ceil(3 pending / 2) shards with one worker polling).
const exhaustiveShards = 4

// walkOp is one letter of the exhaustive walk's alphabet.
type walkOp int

const (
	opPollW0 walkOp = iota
	opPollW1
	opDeliverAll   // the latest grant, every shard
	opDeliverFirst // the latest grant's first shard
	opFailFirst    // an error on the latest grant's first shard
	opExpire       // the clock jumps 1.5 TTL, then Expire
	opHeartbeat    // the clock moves a quarter TTL, then the latest grant heartbeats
	opSubmit       // a second, two-shard job
	opDrain
	numWalkOps
)

// enabled reports whether op applies in the walk's state.
func (w *walk) enabled(op walkOp) bool {
	switch op {
	case opDeliverAll, opDeliverFirst, opFailFirst, opHeartbeat:
		return len(w.grants) > 0
	case opSubmit:
		return len(w.jobs) < 2
	}
	return true
}

// step applies an enabled op.
func (w *walk) step(op walkOp) {
	var g *LeaseGrant
	if len(w.grants) > 0 {
		g = w.grants[len(w.grants)-1]
	}
	switch op {
	case opPollW0, opPollW1:
		w.poll(fmt.Sprintf("w%d", op-opPollW0))
	case opDeliverAll:
		w.logf("deliver all of %s", g.LeaseID)
		w.send(g, g.Shards, -1)
	case opDeliverFirst:
		w.logf("deliver %v of %s", g.Shards[:1], g.LeaseID)
		w.send(g, g.Shards[:1], -1)
	case opFailFirst:
		w.logf("deliver %v of %s, shard %d failed", g.Shards[:1], g.LeaseID, g.Shards[0])
		w.send(g, g.Shards[:1], g.Shards[0])
	case opExpire:
		w.expire()
	case opHeartbeat:
		w.heartbeat(g)
	case opSubmit:
		w.submit(2)
	case opDrain:
		w.drain()
	}
}

// state renders what decides the walk's futures, up to renaming: per job
// its shards' results, owners, attempts and queue, its degraded count and
// turnaround; the live leases in grant order with their times relative to
// the clock; the workers seen within a TTL; the latest grant and whether
// its lease lives; the job count. Left out is what no future step reads:
// the clock's absolute reading, ids of leases gone, the metrics, older
// grants.
func (w *walk) state() string {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	live := make([]*lease, 0, len(s.leases))
	for _, l := range s.leases {
		live = append(live, l)
	}
	slices.SortFunc(live, func(a, b *lease) int { return cmp.Compare(a.seq, b.seq) })
	rank := map[*lease]int{nil: -1}
	for i, l := range live {
		rank[l] = i
	}
	var b strings.Builder
	jobRank := map[string]int{}
	for i, id := range s.order {
		j := s.jobs[id]
		jobRank[id] = i
		fmt.Fprintf(&b, "job %d: turn %d/%d, degraded %d, queue %v, attempts %v, done/owner", i, j.turnSum, j.turnShards, j.degraded, j.pending, j.attempts)
		for shard, res := range j.results {
			fmt.Fprintf(&b, " %v/%d", res != nil, rank[j.owner[shard]])
		}
		b.WriteString("\n")
	}
	for _, l := range live {
		fmt.Fprintf(&b, "lease of job %d: %v, %d open, %s, granted %v ago, expires in %v\n",
			jobRank[l.job.id], l.shards, l.open, l.worker, now.Sub(l.granted), l.expires.Sub(now))
	}
	var polled []string
	for worker, at := range s.polled {
		if now.Sub(at) <= s.cfg.LeaseTTL {
			polled = append(polled, fmt.Sprintf("%s %v ago", worker, now.Sub(at)))
		}
	}
	slices.Sort(polled)
	fmt.Fprintf(&b, "polled %v, draining %v, %d jobs", polled, s.draining, len(w.jobs))
	if len(w.grants) > 0 {
		g := w.grants[len(w.grants)-1]
		fmt.Fprintf(&b, ", latest grant: job %d %v, lease %d", jobRank[g.JobID], g.Shards, rank[s.leases[g.LeaseID]])
	}
	return b.String()
}

// walkResults computes the shards of smallHistories(n) once; a walk
// delivers these.
func walkResults(t testing.TB, n int) []*checkfarm.ShardResult {
	t.Helper()
	base, err := checkJobSpec(smallHistories(n)...).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*checkfarm.ShardResult, n)
	for i := range results {
		res, err := base.RunShard(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = &res
	}
	return results
}

// reach sums what walks reached, from the coordinator's metrics.
type reach struct {
	batches, expired, requeued, degraded, drains int64
}

func (r *reach) add(w *walk) {
	m := &w.s.Metrics
	r.batches += m.ShardsGranted.Load() - m.LeasesGranted.Load()
	r.expired += m.LeasesExpired.Load()
	r.requeued += m.ShardsRequeued.Load()
	r.degraded += m.ShardsDegraded.Load()
	if w.drained {
		r.drains++
	}
}

func (r reach) String() string {
	return fmt.Sprintf("%d shards rode in a batch, %d leases expired, %d shards requeued, %d degraded, %d drains",
		r.batches, r.expired, r.requeued, r.degraded, r.drains)
}

func (r reach) require(t testing.TB) {
	t.Helper()
	if r.batches == 0 || r.expired == 0 || r.requeued == 0 || r.degraded == 0 || r.drains == 0 {
		t.Fatal("the walks never reached one of the paths they exist to cover")
	}
}

type walk struct {
	t        testing.TB
	rng      *rand.Rand // the random walk's choices
	results  []*checkfarm.ShardResult
	attempts int
	s        *Server
	clk      *fakeClock
	jobs     []string
	grants   []*LeaseGrant   // every grant ever received, live or not
	sent     []ResultRequest // every delivery ever made
	first    map[shardKey]*checkfarm.ShardResult
	trace    []string
	drained  bool
}

type shardKey struct {
	job   string
	shard int
}

const walkTTL = time.Second

func newWalk(t testing.TB, results []*checkfarm.ShardResult, attempts int) *walk {
	clk := newFakeClock()
	return &walk{
		t:        t,
		results:  results,
		attempts: attempts,
		s:        clockedServer(Config{LeaseTTL: walkTTL, MaxShardAttempts: attempts}, clk),
		clk:      clk,
		first:    map[shardKey]*checkfarm.ShardResult{},
	}
}

func (w *walk) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf(format, args...))
}

func (w *walk) failf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s\nsteps:\n  %s", fmt.Sprintf(format, args...), strings.Join(w.trace, "\n  "))
}

func (w *walk) submit(n int) {
	id, _, err := w.s.Submit(checkJobSpec(smallHistories(n)...))
	if err != nil {
		w.failf("Submit: %v", err)
	}
	w.jobs = append(w.jobs, id)
	w.logf("submit %s (%d shards)", id, n)
}

func (w *walk) poll(worker string) {
	if g := poll(w.s, worker); g != nil {
		w.grants = append(w.grants, g)
		w.logf("%s leases %s %v as %s", worker, g.JobID, g.Shards, g.LeaseID)
	} else {
		w.logf("%s: nothing grantable", worker)
	}
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

func (w *walk) expire() {
	w.logf("clock +1.5 TTL, expire")
	w.clk.Advance(walkTTL + walkTTL/2)
	w.s.Expire()
}

func (w *walk) heartbeat(g *LeaseGrant) {
	w.clk.Advance(walkTTL / 4)
	w.logf("clock +TTL/4, heartbeat %s: %v", g.LeaseID, w.s.Heartbeat(g.LeaseID))
}

func (w *walk) drain() {
	w.logf("drain")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.s.Drain(ctx); err != nil {
		w.failf("Drain: %v", err)
	}
	w.drained = true
}

// randomWalk runs up to 40 seeded random steps, then finishes.
func randomWalk(t *testing.T, results []*checkfarm.ShardResult, seed int) *walk {
	rng := rand.New(rand.NewSource(int64(seed)))
	workers := 1 + rng.Intn(3)
	w := newWalk(t, results, 1+rng.Intn(2))
	w.rng = rng
	w.logf("seed %d: %d workers, %d attempts", seed, workers, w.attempts)
	w.submitRandom()

	for step := 0; step < 40 && !w.drained; step++ {
		var g *LeaseGrant
		if len(w.grants) > 0 {
			g = w.grants[w.rng.Intn(len(w.grants))]
		}
		switch op := w.rng.Intn(20); {
		case op < 7:
			w.poll(fmt.Sprintf("w%d", w.rng.Intn(workers)))
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
			w.expire()
		case op < 18:
			if g != nil {
				w.heartbeat(g)
			} else {
				w.clk.Advance(walkTTL / 4)
			}
		case op < 19 && len(w.jobs) < 2:
			w.submitRandom()
		case op == 19 && step > 25:
			w.drain()
		}
		w.check()
	}
	w.finish()
	return w
}

// submitRandom submits a job mostly big enough to batch, down to 2 shards.
func (w *walk) submitRandom() {
	w.submit(len(w.results) - w.rng.Intn(3)*w.rng.Intn(3))
}

// finish completes whatever is still open — a healthy worker takes
// everything grantable, and what dead workers hold expires back to it —
// and requires every job to fold.
func (w *walk) finish() {
	w.t.Helper()
	for round := 0; !w.drained && !w.allDone(); round++ {
		if round > 4*len(w.results)*w.attempts {
			w.failf("jobs did not complete")
		}
		if g := poll(w.s, "closer"); g != nil {
			w.logf("closer leases %s %v as %s", g.JobID, g.Shards, g.LeaseID)
			w.send(g, g.Shards, -1)
		} else {
			w.expire()
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
// and on what Status and Stats show of it. A shard's state is read where
// the coordinator keeps it: done iff it has a result, leased iff it has
// an owner, pending otherwise.
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
		queuedAt := make([]int, len(j.results))
		for _, shard := range j.pending {
			queuedAt[shard]++
		}
		nLeased, nDone, nPending := 0, 0, 0
		for shard, res := range j.results {
			l, queued := j.owner[shard], queuedAt[shard]
			var ok bool
			switch {
			case res != nil:
				nDone++
				ok = queued == 0 && l == nil
				key := shardKey{j.id, shard}
				if first := w.first[key]; first == nil {
					w.first[key] = res
				} else if first != res {
					problems = append(problems, fmt.Sprintf("%s/%d was resolved a second time", j.id, shard))
				}
			case l != nil:
				nLeased++
				ok = queued == 0 && s.leases[l.id] == l
			default:
				nPending++
				ok = queued == 1 && !s.draining
			}
			if !ok || j.attempts[shard] > s.cfg.MaxShardAttempts {
				problems = append(problems, fmt.Sprintf("%s/%d: result %v, queued %d times, owner %v, attempts %d", j.id, shard, res != nil, queued, l, j.attempts[shard]))
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
		slices.Sort(problems)
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
