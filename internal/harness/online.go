package harness

import (
	"fmt"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// OnlineReport is the outcome of one monitored episode: the recorded run
// was certified event by event, through a spec.Monitor fed from the
// recorder's log — no history is materialized between recording and
// checking.
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
	// the whole run because the monitor rejected a recorded event or
	// panicked. The Verdict is then honest: a violation latched before
	// the fault stands (prefix closure), but an OK is downgraded to
	// undecided because the tail of the run went unmonitored.
	DegradedReason string
}

// RunMonitored executes the workload, then feeds every event of the
// recorded log to an online monitor, in order: the verdict on each prefix
// is the one the monitor would have given the moment the event was
// recorded (prefix closure, Corollary 2), so the violating event is
// identified exactly, without a batch check of the materialized history.
// interleaved selects the deterministic stepwise scheduler (reproducible
// event order) over real goroutines; nodeLimit <= 0 leaves the per-check
// search unbounded. Further monitor options (such as spec.WithRetirement
// for long-running workloads) pass through extra. The engine runs
// unhindered by the check, which reads the log only after the run.
//
// A monitor that rejects a recorded event or panics degrades the report:
// DegradedReason says why, and an OK or undecided verdict becomes
// undecided; a violation latched before the fault stands.
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
	sc, stats, err := recordRun(w, interleaved)
	if err != nil {
		return OnlineReport{}, err
	}
	log := sc.rec.AppendEvents(nil, 0)
	sc.release()
	violationAt := -1
	events, degraded := feedMonitor(m, log, len(log), &violationAt)
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

// feedMonitor appends events [m.Len(), n) of a recorded log to m, in
// order, and returns how many m took. The first of them whose verdict
// latches a violation sets *latchAt to its index, unless *latchAt is
// already set (>= 0). A rejected event or a panic in m ends the feed and
// comes back as the fault; m is not to be fed again after a panic.
func feedMonitor(m *spec.Monitor, log []history.Event, n int, latchAt *int) (fed int, fault string) {
	from := m.Len()
	i := from
	defer func() {
		if r := recover(); r != nil {
			fed, fault = i-from, fmt.Sprintf("monitor panicked on event %d: %v", i, r)
		}
	}()
	for ; i < n; i++ {
		if feedHook != nil {
			feedHook(log[i])
		}
		v, err := m.Append(log[i])
		if err != nil {
			// The recorder only emits matched, well-ordered events, so a
			// rejection means monitor and recorder disagree.
			return i - from, "monitor rejected recorded event: " + err.Error()
		}
		if *latchAt < 0 && !v.OK && !v.Undecided {
			*latchAt = i
		}
	}
	return n - from, ""
}
