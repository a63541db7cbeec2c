package certd

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"duopacity/internal/checkfarm"
)

// Config parameterizes a coordinator. The zero value is usable; every
// field has a default.
type Config struct {
	// LeaseTTL is how long a granted shard stays owned without a
	// heartbeat (default 3s). Heartbeats extend the lease by a full TTL.
	LeaseTTL time.Duration
	// MaxShardAttempts bounds how many grants a shard gets before the
	// coordinator gives up and folds a degraded artifact in its place
	// (default 3, matching the in-process farm's panic retries).
	MaxShardAttempts int
	// MaxStreams caps concurrently open monitor streams; helloes past the
	// cap are refused with "ERR busy" (default 256).
	MaxStreams int
	// StreamQueue is the per-stream input queue depth (default 256
	// lines): what the reader may have waiting for the drain, which takes
	// the whole queue at a time. A full queue stalls the reader (default)
	// or drops (lossy streams) — never grows.
	StreamQueue int
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.MaxShardAttempts <= 0 {
		c.MaxShardAttempts = 3
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 256
	}
	if c.StreamQueue <= 0 {
		c.StreamQueue = 256
	}
	return c
}

// maxJobShards caps one job. Submit refuses a bigger spec before it
// allocates four words of bookkeeping per shard, so no request makes the
// coordinator allocate gigabytes. Real jobs have hundreds of shards (the
// benchmark's largest: 200 episodes); a million costs at most 32 MiB.
const maxJobShards = 1 << 20

// errDraining refuses a job submitted to a draining coordinator.
var errDraining = errors.New("certd: coordinator is draining")

// job is one submitted spec and its shards. A shard's state is stored
// once: it is done iff results[shard] != nil, leased iff owner[shard] !=
// nil, and pending (queued exactly once in pending) otherwise.
type job struct {
	id       string
	spec     checkfarm.JobSpec // normalized
	owner    []*lease          // the live lease holding each leased shard
	attempts []int
	results  []*checkfarm.ShardResult
	pending  []int // FIFO of pending shard indices
	done     int
	leased   int // shards under live leases
	degraded int

	// Grant-to-result time of the shards delivered by their owning lease:
	// what a grant of this job is expected to cost (grantSizeLocked).
	turnSum    time.Duration
	turnShards int

	folded    bool
	foldErr   error
	formatted string
	report    *checkfarm.JobReport
	foldedCh  chan struct{} // closed when the fold finishes
}

// lease is one grant: shards of one job owned until each one's outcome
// arrives or the lease expires. It lives in Server.leases while it still
// owns a shard (open > 0).
type lease struct {
	id      string
	seq     int64 // grant order: expiry requeues in it
	job     *job
	shards  []int // as granted; the lease owns those with job.owner[shard] == this lease
	open    int
	worker  string
	granted time.Time // start of the turnaround being measured
	expires time.Time
}

// Server is the certd coordinator: the job/lease state machine, its HTTP
// surface (Handler), and the stream listener (ServeStreams).
type Server struct {
	cfg     Config
	Metrics Metrics
	now     func() time.Time // lease bookkeeping's clock; tests substitute a fake one
	slow    time.Duration    // delay before every stream append; tests make backpressure observable with it

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order; leases are granted oldest-job-first
	leases   map[string]*lease
	polled   map[string]time.Time // worker -> its last lease poll
	wake     chan struct{}        // closed, and replaced, when parked lease polls should look again
	seq      int64
	draining bool // written under mu and streamMu both; either suffices to read it

	streams   sync.WaitGroup
	streamMu  sync.Mutex
	streamLns []interface{ Close() error }
	conns     map[interface{ Close() error }]struct{}
}

// NewServer builds a coordinator. Run ExpireLoop (or poke Expire from
// tests) to reclaim leases whose workers died; lease checks also happen
// lazily on every lease and heartbeat call.
func NewServer(cfg Config) *Server {
	return &Server{
		cfg:    cfg.withDefaults(),
		now:    time.Now,
		jobs:   make(map[string]*job),
		leases: make(map[string]*lease),
		polled: make(map[string]time.Time),
		wake:   make(chan struct{}),
		conns:  make(map[interface{ Close() error }]struct{}),
	}
}

// wakeLocked sends every parked lease poll back to look for work.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Submit registers a job and returns its id. The spec is normalized
// here, once, so every worker sees identical defaults.
func (s *Server) Submit(spec checkfarm.JobSpec) (string, int, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return "", 0, err
	}
	n := spec.NumShards()
	if n > maxJobShards {
		return "", 0, fmt.Errorf("certd: job has %d shards, more than the %d one job may have", n, maxJobShards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", 0, errDraining
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%d", s.seq),
		spec:     spec,
		owner:    make([]*lease, n),
		attempts: make([]int, n),
		results:  make([]*checkfarm.ShardResult, n),
		pending:  make([]int, 0, n),
		foldedCh: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		j.pending = append(j.pending, i)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.Metrics.JobsSubmitted.Add(1)
	s.wakeLocked()
	return j.id, n, nil
}

// Lease grants the oldest pending shards of the oldest job that has any
// to a worker, or returns nil when no work is available. With hold > 0
// (clamped to LeaseTTL) a call that finds nothing to grant parks until a
// submit, a requeue or a drain wakes it, the hold runs out or ctx ends.
// Expired leases are reclaimed first, so a polling worker doubles as the
// liveness scan.
func (s *Server) Lease(ctx context.Context, worker string, hold time.Duration) *LeaseGrant {
	hold = min(hold, s.cfg.LeaseTTL)
	var timeout <-chan time.Time
	for {
		s.mu.Lock()
		g := s.grantLocked(worker)
		wake, draining := s.wake, s.draining
		s.mu.Unlock()
		if g != nil || draining || hold <= 0 {
			return g
		}
		if timeout == nil {
			t := time.NewTimer(hold)
			defer t.Stop()
			timeout = t.C
			s.Metrics.LeasePollsParked.Add(1)
		}
		select {
		case <-wake:
		case <-timeout:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

func (s *Server) grantLocked(worker string) *LeaseGrant {
	s.expireLocked()
	now := s.now()
	s.polled[worker] = now
	if s.draining {
		return nil
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if len(j.pending) == 0 {
			continue
		}
		n := s.grantSizeLocked(j, now)
		shards := append([]int(nil), j.pending[:n]...)
		j.pending = j.pending[n:]
		s.seq++
		l := &lease{
			id:      fmt.Sprintf("L%d", s.seq),
			seq:     s.seq,
			job:     j,
			shards:  shards,
			open:    n,
			worker:  worker,
			granted: now,
			expires: now.Add(s.cfg.LeaseTTL),
		}
		for _, shard := range shards {
			j.owner[shard] = l
			j.attempts[shard]++
		}
		j.leased += n
		s.leases[l.id] = l
		s.Metrics.LeasesGranted.Add(1)
		s.Metrics.ShardsGranted.Add(int64(n))
		return &LeaseGrant{
			JobID:     j.id,
			Shards:    shards,
			LeaseID:   l.id,
			TTLMillis: s.cfg.LeaseTTL.Milliseconds(),
			Spec:      j.spec,
		}
	}
	return nil
}

// grantSizeLocked is the batching policy — guided self-scheduling under a
// heartbeat budget. A job nobody has delivered a result for yet is probed
// with single shards. After that a grant takes ceil(pending / 2W) shards,
// W being the workers seen polling within the last LeaseTTL: big while
// there is plenty left, small near the end, so that W workers finish
// together and a straggler holds at most half a worker's share. The
// grant is then cut down so that its expected compute — at the job's own
// observed grant-to-result time per shard — fits one heartbeat interval,
// LeaseTTL/3: what dies with a worker is bounded by that, and shards as
// long as the interval travel one per grant.
func (s *Server) grantSizeLocked(j *job, now time.Time) int {
	if j.turnShards == 0 {
		return 1
	}
	workers := 0
	for w, at := range s.polled {
		if now.Sub(at) > s.cfg.LeaseTTL {
			delete(s.polled, w)
			continue
		}
		workers++
	}
	n := (len(j.pending) + 2*workers - 1) / (2 * workers)
	if perShard := j.turnSum / time.Duration(j.turnShards); perShard > 0 {
		n = min(n, int(s.cfg.LeaseTTL/3/perShard))
	}
	return max(n, 1)
}

// Heartbeat extends a lease by a full TTL; false means the lease is gone
// (expired and reclaimed, or every shard of it already resolved).
func (s *Server) Heartbeat(leaseID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, ok := s.leases[leaseID]
	if !ok {
		return false
	}
	l.expires = s.now().Add(s.cfg.LeaseTTL)
	return true
}

// Result folds the outcomes of a grant, shard by shard. Idempotent: a
// result for an already-done shard — a retried delivery, or a slow worker
// racing the requeue — is an acknowledged no-op. An Err outcome requeues
// its shard (or degrades it past its attempts). A malformed request is
// refused whole, before any outcome is applied.
func (s *Server) Result(req ResultRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[req.JobID]
	if !ok {
		return fmt.Errorf("certd: unknown job %q", req.JobID)
	}
	for _, o := range req.Outcomes {
		if o.Shard < 0 || o.Shard >= len(j.results) {
			return fmt.Errorf("certd: job %s has no shard %d", req.JobID, o.Shard)
		}
		if o.Err == "" && o.Result == nil {
			return fmt.Errorf("certd: result for job %s shard %d carries neither a result nor an error", req.JobID, o.Shard)
		}
	}
	l := s.leases[req.LeaseID]
	computed := 0
	for _, o := range req.Outcomes {
		// Whether the presenting lease still owns the shard decides the
		// error path; resolveLocked/requeueLocked take the shard off
		// whichever lease holds it and settle the leased count.
		owned := l != nil && j.owner[o.Shard] == l
		switch {
		case j.results[o.Shard] != nil: // duplicate delivery
		case o.Err != "":
			// Only the lease that still owns the shard may requeue it. A
			// stale Err — the lease expired and the shard is already back in
			// the queue or re-leased — already had its requeue; acting on it
			// again would enqueue the shard twice.
			if owned {
				s.requeueLocked(j, o.Shard, fmt.Sprintf("worker %s: %s", req.Worker, o.Err))
			}
		default:
			if owned {
				computed++
			}
			s.resolveLocked(j, o.Shard, o.Result)
		}
	}
	if computed > 0 {
		now := s.now()
		j.turnSum += now.Sub(l.granted)
		j.turnShards += computed
		l.granted = now
	}
	return nil
}

// Expire reclaims every lease past its deadline: the shards it still
// owes go back to the pending queue, or — past MaxShardAttempts grants —
// degrade into the explicit dead-worker artifact. Safe to call from a
// ticker.
func (s *Server) Expire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
}

// expireLocked requeues what expired leases still owe, in grant order, so
// the same calls at the same instants always queue the same shards. A
// scan that finds nothing expired allocates nothing.
func (s *Server) expireLocked() {
	now := s.now()
	var expired []*lease
	for _, l := range s.leases {
		if !now.Before(l.expires) {
			expired = append(expired, l)
		}
	}
	slices.SortFunc(expired, func(a, b *lease) int { return cmp.Compare(a.seq, b.seq) })
	for _, l := range expired {
		s.Metrics.LeasesExpired.Add(1)
		for _, shard := range l.shards {
			if l.job.owner[shard] == l {
				s.requeueLocked(l.job, shard, fmt.Sprintf("worker %s: lease expired", l.worker))
			}
		}
	}
}

// releaseLocked takes a shard off the lease that holds it and settles the
// leased count; a lease that owes nothing more is dropped. It reports
// whether the shard was leased.
func (s *Server) releaseLocked(j *job, shard int) bool {
	l := j.owner[shard]
	if l == nil {
		return false
	}
	j.owner[shard] = nil
	j.leased--
	if l.open--; l.open == 0 {
		delete(s.leases, l.id)
	}
	return true
}

// requeueLocked returns a leased shard to the queue, or degrades it once
// its grants are spent.
func (s *Server) requeueLocked(j *job, shard int, reason string) {
	if j.attempts[shard] >= s.cfg.MaxShardAttempts {
		s.degradeLocked(j, shard, fmt.Sprintf("%s (attempt %d/%d)", reason, j.attempts[shard], s.cfg.MaxShardAttempts))
		return
	}
	s.releaseLocked(j, shard)
	j.pending = append(j.pending, shard)
	s.Metrics.ShardsRequeued.Add(1)
	s.wakeLocked()
}

// degradeLocked resolves a shard with its explicit degradation artifact.
func (s *Server) degradeLocked(j *job, shard int, reason string) {
	res := j.spec.DegradedShard(shard, reason)
	s.Metrics.ShardsDegraded.Add(1)
	j.degraded++
	s.resolveLocked(j, shard, &res)
}

// resolveLocked marks an unresolved shard done and kicks the fold when it
// was the last one. The fold runs outside the lock (soak folds shrink
// counterexamples — real compute). A lease still holding the shard — a
// second worker racing a stale delivery — loses it; its eventual result
// lands as a duplicate no-op.
func (s *Server) resolveLocked(j *job, shard int, res *checkfarm.ShardResult) {
	// A stale result can land while the shard sits requeued in the
	// pending FIFO (lease expired, delivery raced the re-lease): pull it
	// out so a later Lease can't grant an already-done shard.
	if !s.releaseLocked(j, shard) {
		if i := slices.Index(j.pending, shard); i >= 0 {
			j.pending = slices.Delete(j.pending, i, i+1)
		}
	}
	j.results[shard] = res
	j.done++
	s.Metrics.ShardsDone.Add(1)
	if j.done == len(j.results) {
		go s.fold(j)
	}
}

func (s *Server) fold(j *job) {
	rep, err := checkfarm.FoldJob(context.Background(), j.spec, j.results, 0) // 0: a GOMAXPROCS shrinking pool
	s.mu.Lock()
	j.folded = true
	if err != nil {
		j.foldErr = err
		s.Metrics.JobsFailed.Add(1)
	} else {
		j.report = rep
		j.formatted = checkfarm.FormatJobReport(j.spec, rep)
		s.Metrics.JobsDone.Add(1)
	}
	s.mu.Unlock()
	close(j.foldedCh)
}

// Status reports a job's progress; the formatted report appears once the
// fold lands.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("certd: unknown job %q", id)
	}
	st := &JobStatus{
		ID: j.id, Kind: j.spec.Kind, Shards: len(j.results),
		Done: j.done, Leased: j.leased, Degraded: j.degraded,
	}
	switch {
	case j.foldErr != nil:
		st.State = JobFailed
		st.Err = j.foldErr.Error()
	case j.folded:
		st.State = JobDone
		st.Formatted = j.formatted
	case j.done == len(j.results):
		st.State = JobFolding
	default:
		st.State = JobRunning
	}
	return st, nil
}

// Report blocks until the job's fold lands and returns the structured
// report — the in-process path for embedders and tests.
func (s *Server) Report(ctx context.Context, id string) (*checkfarm.JobReport, string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, "", fmt.Errorf("certd: unknown job %q", id)
	}
	select {
	case <-j.foldedCh:
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.foldErr != nil {
		return nil, "", j.foldErr
	}
	return j.report, j.formatted, nil
}

// Drain gracefully shuts the coordinator down: no new jobs, no new
// leases, no new streams. Every shard still pending or outstanding
// degrades into its explicit dead-worker artifact so every job folds and
// completes — a drained coordinator never leaves a submitter hanging.
// Open streams are closed (the listener first, then — once ctx expires —
// any connection still open). Returns once every job has folded and
// every stream handler has returned, or with ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.streamMu.Lock() // ServeStreams reads draining under streamMu alone
	s.draining = true
	s.streamMu.Unlock()
	var open []*job
	for _, id := range s.order {
		j := s.jobs[id]
		j.pending = nil // every unresolved shard degrades below, leased or pending
		for shard, res := range j.results {
			if res == nil {
				s.degradeLocked(j, shard, "coordinator draining")
			}
		}
		if !j.folded {
			open = append(open, j)
		}
	}
	s.wakeLocked() // parked lease polls answer "no work" now, not when their hold runs out
	s.mu.Unlock()

	s.closeStreamListeners()
	streamsDone := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(streamsDone)
	}()

	for _, j := range open {
		select {
		case <-j.foldedCh:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case <-streamsDone:
		return nil
	case <-ctx.Done():
		s.closeStreamConns()
		<-streamsDone
		return ctx.Err()
	}
}

// ExpireLoop runs the lease janitor until ctx ends: even with every
// worker dead (nobody left to poll Lease and trigger the lazy scan),
// outstanding leases still expire and jobs still complete.
func (s *Server) ExpireLoop(ctx context.Context) {
	interval := s.cfg.LeaseTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Expire()
		}
	}
}

// Stats composes the /statsz snapshot.
func (s *Server) Stats() StatsSnapshot {
	snap := s.Metrics.snapshot()
	s.mu.Lock()
	snap.Draining = s.draining
	snap.Jobs.LeasesOutstanding = int64(len(s.leases))
	for _, j := range s.jobs {
		if !j.folded {
			snap.Jobs.Open++
		}
	}
	s.mu.Unlock()
	return snap
}

// Handler is the coordinator's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
	mux.HandleFunc("/v1/jobs", postJSON(func(w http.ResponseWriter, r *http.Request, req SubmitRequest) {
		id, n, err := s.Submit(req.Spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, errDraining) {
				code = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), code)
			return
		}
		writeJSON(w, SubmitResponse{ID: id, Shards: n})
	}))
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if ms, _ := strconv.ParseInt(r.URL.Query().Get("wait_millis"), 10, 64); ms > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), min(time.Duration(ms)*time.Millisecond, s.cfg.LeaseTTL))
			_, _, _ = s.Report(ctx, id) // only the wait; Status answers, unknown job included
			cancel()
		}
		st, err := s.Status(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("/v1/lease", postJSON(func(w http.ResponseWriter, r *http.Request, req LeaseRequest) {
		g := s.Lease(r.Context(), req.Worker, time.Duration(req.WaitMillis)*time.Millisecond)
		if g == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, g)
	}))
	mux.HandleFunc("/v1/heartbeat", postJSON(func(w http.ResponseWriter, r *http.Request, req HeartbeatRequest) {
		if !s.Heartbeat(req.LeaseID) {
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/v1/result", postJSON(func(w http.ResponseWriter, r *http.Request, req ResultRequest) {
		if err := s.Result(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

// maxBodyBytes bounds a JSON request body. The largest bodies the repo's
// own clients send are result deliveries: all 84 outcomes of a default
// soak job in one body come to 168 KB, all 200 of the benchmark's
// seven-criteria certify job to 84 KB, and a grant carries a fraction of
// a job. A check job's spec carries its histories as text, so the bound
// leaves two orders of magnitude above that.
const maxBodyBytes = 16 << 20

// postJSON is the one decode path of the JSON routes: anything but POST
// is refused with 405, a body over maxBodyBytes with 413, a body that
// does not decode into a Req with 400.
func postJSON[Req any](serve func(http.ResponseWriter, *http.Request, Req)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			code := http.StatusBadRequest
			if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), code)
			return
		}
		serve(w, r, req)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
