package harness

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// OnlineReport is the outcome of one monitored episode: the execution was
// certified while it ran, event by event, through a spec.Monitor attached
// to the recorder's tap — no history is materialized between recording
// and checking.
type OnlineReport struct {
	// Verdict is the monitor's final verdict. Because the monitorable
	// criteria are prefix-latched, a violation identifies the exact
	// response event at which the execution became uncertifiable.
	Verdict spec.Verdict
	// ViolationAt is the index of the event that latched the violation,
	// or -1 when the verdict is not a latched violation.
	ViolationAt int
	// Events is the number of events observed.
	Events int
	// Searches and FastHits are the monitor's cost counters: full
	// serialization searches vs. incremental witness reuses.
	Searches, FastHits int
	// Retired counts transactions garbage-collected by windowed
	// retirement; it stays 0 unless spec.WithRetirement was passed.
	Retired int
	// Stats summarizes the underlying run.
	Stats RunStats
	// DegradedReason is set when online certification could not observe
	// the whole run — the monitor rejected or panicked on a recorded
	// event, or (under checkfarm.CertifyOnline) the episode shard panicked
	// past its retries. The Verdict is then honest: a violation latched
	// before the fault stands (prefix closure), but an OK is downgraded to
	// undecided because the tail of the run went unmonitored.
	DegradedReason string
}

// RunMonitored executes the workload with an online monitor certifying
// every event as it is recorded — the live-monitor capability: the
// verdict is available the moment the run ends (and the violating event
// is identified the moment it happens), instead of replaying the episode
// through a batch check afterwards. interleaved selects the
// deterministic stepwise scheduler (reproducible event order) over real
// goroutines; nodeLimit <= 0 leaves the per-check search unbounded.
// Further monitor options (such as spec.WithRetirement for long-running
// workloads) pass through extra.
//
// The monitor runs inside the recorder's capture mutex, so the monitored
// engine's operations serialize through the check; use RunRecorded plus a
// batch check when measuring engine throughput.
func RunMonitored(w Workload, c spec.Criterion, nodeLimit int, interleaved bool, extra ...spec.Option) (OnlineReport, error) {
	var opts []spec.Option
	if nodeLimit > 0 {
		opts = append(opts, spec.WithNodeLimit(nodeLimit))
	}
	opts = append(opts, extra...)
	m, err := spec.NewMonitor(c, opts...)
	if err != nil {
		return OnlineReport{}, err
	}
	violationAt := -1
	events := 0
	degraded := ""
	tap := func(e history.Event) {
		if degraded != "" {
			return
		}
		v, aerr := m.Append(e)
		if aerr != nil {
			// The recorder only emits matched, well-ordered events, so a
			// rejection means monitor and recorder disagree. Stop
			// monitoring and report the degradation instead of panicking
			// inside the capture path; the recorded history is unharmed.
			degraded = "monitor rejected recorded event: " + aerr.Error()
			return
		}
		if violationAt < 0 && !v.OK && !v.Undecided {
			violationAt = events
		}
		events++
	}
	var stats RunStats
	if interleaved {
		_, stats, err = runInterleaved(w, tap)
	} else {
		_, stats, err = runRecorded(w, tap)
	}
	if err != nil {
		return OnlineReport{}, err
	}
	v := m.Verdict()
	if degraded != "" && (v.OK || v.Undecided) {
		// The tail of the run went unmonitored: an OK cannot be claimed.
		// A latched violation stands — the violating prefix refutes the
		// whole run by prefix closure.
		v = spec.Verdict{Criterion: c, Undecided: true, Reason: "degraded: " + degraded}
	}
	searches, fastHits := m.Stats()
	return OnlineReport{
		Verdict:        v,
		ViolationAt:    violationAt,
		Events:         events,
		Searches:       searches,
		FastHits:       fastHits,
		Retired:        m.Retired(),
		Stats:          stats,
		DegradedReason: degraded,
	}, nil
}

// CertifyEpisodeOnlineCtx runs episode ep of the certification described
// by cfg through the online monitor instead of the record-then-check
// pipeline: the episode's events are fed through the monitor's stream as
// they occur and never materialized into a batch history. Episodes are
// seeded exactly as CertifyEpisodeCtx seeds them, so online and batch
// certification cover the same executions. Call cfg.WithDefaults first
// when bypassing CertifyOnline aggregation. Cancellation is threaded into
// the monitor's checks (spec.WithContext): a farm deadline turns the
// episode's remaining searches into prompt undecided verdicts instead of
// running each to the node limit.
func CertifyEpisodeOnlineCtx(ctx context.Context, cfg CertConfig, ep int, c spec.Criterion) (OnlineReport, error) {
	w := cfg.Workload
	w.Seed = cfg.Workload.Seed + int64(ep)*episodeSeedStride
	var extra []spec.Option
	if ctx != nil {
		extra = append(extra, spec.WithContext(ctx))
	}
	return RunMonitored(w, c, cfg.NodeLimit, cfg.Interleaved, extra...)
}

// OnlineStats aggregates online certification outcomes.
type OnlineStats struct {
	Engine    string
	Criterion spec.Criterion
	Episodes  int
	Accepted  int
	Rejected  int
	Undecided int
	// Degraded counts episodes whose monitoring was cut short (see
	// OnlineReport.DegradedReason); each is also counted in Undecided or
	// Rejected, never in Accepted.
	Degraded int
	// FirstReason records the first rejection reason.
	FirstReason string
	// Events, Searches and FastHits accumulate the monitors' cost
	// counters across episodes.
	Events, Searches, FastHits int64
}

// AddEpisode folds one monitored episode into the statistics. Folding
// reports in episode order keeps FirstReason deterministic.
func (s *OnlineStats) AddEpisode(r OnlineReport) {
	s.Episodes++
	if r.DegradedReason != "" {
		s.Degraded++
	}
	v := r.Verdict
	switch {
	case v.Undecided:
		s.Undecided++
	case v.OK:
		s.Accepted++
	default:
		s.Rejected++
		if s.FirstReason == "" {
			s.FirstReason = v.Reason
		}
	}
	s.Events += int64(r.Events)
	s.Searches += int64(r.Searches)
	s.FastHits += int64(r.FastHits)
}

// FormatOnlineTable renders online certification statistics.
func FormatOnlineTable(s OnlineStats) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "engine %s, %s (online): %d episodes\n", s.Engine, s.Criterion, s.Episodes)
	fmt.Fprintln(tw, "accepted\trejected\tundecided\tevents\tsearches\tfast-hits")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\n",
		s.Accepted, s.Rejected, s.Undecided, s.Events, s.Searches, s.FastHits)
	if s.FirstReason != "" {
		fmt.Fprintf(tw, "first reason: %s\n", s.FirstReason)
	}
	_ = tw.Flush()
	return b.String()
}
