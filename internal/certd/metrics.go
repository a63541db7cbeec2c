package certd

import "sync/atomic"

// Metrics holds the server's monotonic counters. Everything is atomic —
// stream handlers and HTTP handlers bump them without taking the
// coordinator lock — and /statsz serves a consistent-enough snapshot
// (each counter is read atomically; cross-counter skew is fine for an
// ops surface).
type Metrics struct {
	// Stream-side counters.
	StreamsOpen     atomic.Int64 // currently connected
	StreamsTotal    atomic.Int64 // accepted since start
	StreamsRejected atomic.Int64 // refused at admission ("ERR busy")
	StreamEvents    atomic.Int64 // events appended to monitors
	StreamBad       atomic.Int64 // malformed or rejected input lines
	AppendNanos     atomic.Int64 // cumulative latency of the sampled session appends
	AppendSamples   atomic.Int64 // session appends timed: each stream's first and every 64th after it
	StreamSearches  atomic.Int64 // responses decided by a full search, folded in when a stream ends
	StreamFastHits  atomic.Int64 // responses decided by the incremental witness, likewise
	// What those fast hits touched (spec.Counters), folded in likewise.
	StreamFlips          atomic.Int64 // commit-decision flips
	StreamMoves          atomic.Int64 // moves of a transaction to the end of its witness
	StreamReadsRechecked atomic.Int64 // reads re-validated at flips and moves
	StreamRetireProbes   atomic.Int64 // retirement probes run (not skipped as unchanged)
	// Writes to stream connections, by what caused them, folded in likewise.
	StreamFlushesIdle atomic.Int64 // the input had gone idle
	StreamFlushesFull atomic.Int64 // 32 KB of output were waiting

	// Job-side counters.
	JobsSubmitted  atomic.Int64
	JobsDone       atomic.Int64
	JobsFailed     atomic.Int64
	LeasesGranted  atomic.Int64 // grants; ShardsGranted / LeasesGranted is the mean grant size
	ShardsGranted  atomic.Int64
	LeasesExpired  atomic.Int64
	ShardsDone     atomic.Int64
	ShardsRequeued atomic.Int64
	ShardsDegraded atomic.Int64
	// LeasePollsParked counts lease polls that found nothing to grant and
	// were held by the coordinator.
	LeasePollsParked atomic.Int64
}

// StatsSnapshot is the /statsz payload: the counters plus the gauges
// only the coordinator state knows (open jobs, outstanding leases).
type StatsSnapshot struct {
	Streams struct {
		Open     int64 `json:"open"`
		Total    int64 `json:"total"`
		Rejected int64 `json:"rejected"`
		Events   int64 `json:"events"`
		Bad      int64 `json:"bad"`
		// Stalls is always 0: a stream reads its connection itself, so a
		// producer that outruns it waits on TCP flow control, which the
		// server does not see. The field stays for readers of the payload.
		Stalls int64 `json:"stalls"`
		// FlushesIdle and FlushesFull count the writes of ended streams, by
		// cause: the input went idle, or 32 KB of output were waiting.
		// Verdict lag moves with the first, syscalls per event with both.
		FlushesIdle int64 `json:"flushes_idle"`
		FlushesFull int64 `json:"flushes_full"`
		// AvgAppendNanos is the mean session-append latency over the
		// server's lifetime, estimated from the AppendSamples appends
		// timed: each stream's first accepted append and every 64th after
		// it (0 before the first sample).
		AvgAppendNanos int64 `json:"avg_append_nanos"`
		AppendSamples  int64 `json:"append_samples"`
		// Searches and FastHits split the ended streams' verdict work (per
		// response and criterion) into full searches and witness reuses.
		Searches int64 `json:"searches"`
		FastHits int64 `json:"fast_hits"`
		// Flips, Moves, ReadsRechecked and RetireProbes say what the fast
		// hits touched: commit-decision flips, moves of a committer or a
		// reader to the end of its witness, the reads they re-validated
		// (per flip or move, a handful whatever the retirement window),
		// and the retirement probes that ran because a transaction had
		// t-completed.
		Flips          int64 `json:"flips"`
		Moves          int64 `json:"moves"`
		ReadsRechecked int64 `json:"reads_rechecked"`
		RetireProbes   int64 `json:"retire_probes"`
	} `json:"streams"`
	Jobs struct {
		Submitted         int64 `json:"submitted"`
		Open              int64 `json:"open"`
		Done              int64 `json:"done"`
		Failed            int64 `json:"failed"`
		LeasesGranted     int64 `json:"leases_granted"`
		ShardsGranted     int64 `json:"shards_granted"`
		LeasePollsParked  int64 `json:"lease_polls_parked"`
		LeasesOutstanding int64 `json:"leases_outstanding"`
		LeasesExpired     int64 `json:"leases_expired"`
		ShardsDone        int64 `json:"shards_done"`
		ShardsRequeued    int64 `json:"shards_requeued"`
		ShardsDegraded    int64 `json:"shards_degraded"`
	} `json:"jobs"`
	Draining bool `json:"draining"`
}

// snapshot fills the counter half; the server adds its gauges.
func (m *Metrics) snapshot() StatsSnapshot {
	var s StatsSnapshot
	s.Streams.Open = m.StreamsOpen.Load()
	s.Streams.Total = m.StreamsTotal.Load()
	s.Streams.Rejected = m.StreamsRejected.Load()
	s.Streams.Events = m.StreamEvents.Load()
	s.Streams.Bad = m.StreamBad.Load()
	s.Streams.FlushesIdle = m.StreamFlushesIdle.Load()
	s.Streams.FlushesFull = m.StreamFlushesFull.Load()
	s.Streams.AppendSamples = m.AppendSamples.Load()
	if n := s.Streams.AppendSamples; n > 0 {
		s.Streams.AvgAppendNanos = m.AppendNanos.Load() / n
	}
	s.Streams.Searches = m.StreamSearches.Load()
	s.Streams.FastHits = m.StreamFastHits.Load()
	s.Streams.Flips = m.StreamFlips.Load()
	s.Streams.Moves = m.StreamMoves.Load()
	s.Streams.ReadsRechecked = m.StreamReadsRechecked.Load()
	s.Streams.RetireProbes = m.StreamRetireProbes.Load()
	s.Jobs.Submitted = m.JobsSubmitted.Load()
	s.Jobs.Done = m.JobsDone.Load()
	s.Jobs.Failed = m.JobsFailed.Load()
	s.Jobs.LeasesGranted = m.LeasesGranted.Load()
	s.Jobs.ShardsGranted = m.ShardsGranted.Load()
	s.Jobs.LeasePollsParked = m.LeasePollsParked.Load()
	s.Jobs.LeasesExpired = m.LeasesExpired.Load()
	s.Jobs.ShardsDone = m.ShardsDone.Load()
	s.Jobs.ShardsRequeued = m.ShardsRequeued.Load()
	s.Jobs.ShardsDegraded = m.ShardsDegraded.Load()
	return s
}
