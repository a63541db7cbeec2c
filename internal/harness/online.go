package harness

import (
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
	// the whole run because the monitor rejected a recorded event. The
	// Verdict is then honest: a violation latched before the fault stands
	// (prefix closure), but an OK is downgraded to undecided because the
	// tail of the run went unmonitored.
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
