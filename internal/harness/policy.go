package harness

import (
	"duopacity/internal/recorder"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// This file is the single home of the deterministic stepwise execution
// model shared by the seeded sampler (RunInterleaved) and the exhaustive
// schedule explorer (ExplorePlanCtx): virtual threads, the admissibility
// rule deciding — from the engine's Blocking trait — which threads may
// take a step without blocking the one real goroutine, and the stepper
// that advances a thread by one t-operation. Keeping sampler and explorer on the same stepper is
// what makes the explorer's claim meaningful — the set of schedules it
// enumerates is, by construction, exactly the set the sampler draws from
// (pinned by TestExploreContainsSampledSchedules).

// admissible reports whether stepping t cannot block under the engine's
// blocking discipline, given the states of all threads.
func (s *stepper) admissible(t *vthread) bool {
	switch s.blocking {
	case engines.GlobalLock:
		// Only beginning a transaction blocks; once inside, the thread
		// holds the global lock and every step completes.
		if t.tx != nil {
			return true
		}
		for _, o := range s.threads {
			if o != t && o.tx != nil {
				return false
			}
		}
		return true
	case engines.WriterLock:
		// Only the first write of an attempt blocks, and only while
		// another live transaction holds the writer lock. The begin step
		// also executes the attempt's first operation, so a thread between
		// transactions is gated on operation 0.
		if t.wrote {
			return true
		}
		next := t.opIdx
		if t.tx == nil {
			next = 0
		}
		ops := t.plan[t.txnIdx]
		if next >= len(ops) || ops[next].Read {
			return true // commit and reads never block in ple
		}
		for _, o := range s.threads {
			if o != t && o.tx != nil && o.wrote {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// vthread is one virtual thread of a stepwise execution.
type vthread struct {
	plan []stm.PlanTxn

	txnIdx   int           // index of the current transaction in plan
	opIdx    int           // next operation of the current attempt
	attempts int           // attempts used for the current transaction
	tx       *recorder.Txn // nil between transactions; points to own while set
	own      recorder.Txn  // storage of the thread's recorded transactions
	wrote    bool          // current attempt has performed a write
	backoff  bool          // aborted; waits for another thread to t-complete
	done     bool
}

// threadsFor builds fresh virtual threads for a plan.
func threadsFor(p stm.Plan) []*vthread {
	threads := make([]*vthread, len(p.Threads))
	for g := range threads {
		threads[g] = &vthread{plan: p.Threads[g]}
	}
	return threads
}

// stepper advances virtual threads one t-operation at a time against a
// recorded engine. It contains no scheduling choice of its own: callers
// pick a thread from runnable() and step() it, so the recorded history is
// a pure function of the sequence of choices (the schedule).
type stepper struct {
	rec         *recorder.Recorder
	threads     []*vthread
	blocking    engines.Blocking // resolved once per run
	maxAttempts int

	vals    int64 // written-value source (unique writes)
	commits int64
	aborts  int64
	failed  int64
}

// runnable appends the indexes of the threads that may take a step into
// buf (reused across calls) and returns it. When every live thread is
// backing off, the backoffs are lifted and the set recomputed — exactly
// the sampler's historical semantics — so an empty result means the run
// is complete.
func (s *stepper) runnable(buf []int) []int {
	for {
		buf = buf[:0]
		for i, t := range s.threads {
			if !t.done && !t.backoff && s.admissible(t) {
				buf = append(buf, i)
			}
		}
		if len(buf) > 0 {
			return buf
		}
		if !s.clearBackoffs() {
			return buf // all threads done
		}
	}
}

// clearBackoffs lifts every backoff; it reports whether any thread was
// waiting (false means the run is complete).
func (s *stepper) clearBackoffs() bool {
	any := false
	for _, t := range s.threads {
		if !t.done && t.backoff {
			t.backoff = false
			any = true
		}
	}
	return any
}

// step advances t by one t-operation (beginning the transaction first when
// needed) and resolves commits, aborts and retries.
func (s *stepper) step(t *vthread) {
	if t.tx == nil {
		t.tx = s.rec.BeginInto(&t.own)
		t.attempts++
		t.opIdx = 0
		t.wrote = false
	}
	ops := t.plan[t.txnIdx]
	if t.opIdx == len(ops) {
		// All operations done: this step is the commit.
		if err := t.tx.Commit(); err != nil {
			s.resolveAbort(t)
			return
		}
		s.commits++
		s.aborts += int64(t.attempts - 1)
		s.advance(t)
		return
	}
	op := ops[t.opIdx]
	var err error
	if op.Read {
		_, err = t.tx.Read(op.Obj)
	} else {
		s.vals++
		err = t.tx.Write(op.Obj, s.vals)
		if err == nil {
			t.wrote = true
		}
	}
	if err != nil {
		t.tx.Abort() // no-op when the recorder already observed A_k
		s.resolveAbort(t)
		return
	}
	t.opIdx++
}

// resolveAbort handles a failed attempt: either the transaction retries
// (after backing off until some other thread t-completes a transaction,
// which bounds retry storms in the single-threaded schedule) or it has
// exhausted its attempts and fails.
func (s *stepper) resolveAbort(t *vthread) {
	t.tx = nil
	t.wrote = false
	t.opIdx = 0
	if t.attempts >= s.maxAttempts {
		s.failed++
		s.aborts += int64(t.attempts - 1)
		s.advance(t)
		return
	}
	t.backoff = true
}

// advance moves t to its next planned transaction and lifts the backoff of
// threads waiting on this one's completion.
func (s *stepper) advance(t *vthread) {
	t.txnIdx++
	t.opIdx = 0
	t.attempts = 0
	t.tx = nil
	t.wrote = false
	if t.txnIdx == len(t.plan) {
		t.done = true
	}
	for _, o := range s.threads {
		if o != t {
			o.backoff = false
		}
	}
}
