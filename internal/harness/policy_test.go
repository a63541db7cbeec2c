package harness

import (
	"testing"

	"duopacity/internal/recorder"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// newStepper builds a stepper over a fresh engine for direct admissibility
// tests.
func newStepper(t *testing.T, engine string, p stm.Plan, maxAttempts int) *stepper {
	t.Helper()
	eng, err := engines.New(engine, p.Objects)
	if err != nil {
		t.Fatal(err)
	}
	return &stepper{
		rec:         recorder.New(eng),
		threads:     threadsFor(p),
		blocking:    engines.TraitsOf(engine).Blocking,
		maxAttempts: maxAttempts,
	}
}

// TestPolicyFor pins the engine → blocking-discipline mapping as the
// stepper sees it: the explorer's enumeration claim is "all schedules
// the discipline allows", so the mapping is load-bearing shared
// knowledge. With one writer live, gl admits no other thread to begin,
// ple admits readers but no second writer, and every other engine
// admits both.
func TestPolicyFor(t *testing.T) {
	want := map[string]struct{ writer, reader bool }{
		"gl":    {false, false},
		"ple":   {false, true},
		"tl2":   {true, true},
		"norec": {true, true},
		"dstm":  {true, true},
		"etl":   {true, true},
		"etl+v": {true, true},
		"pdur":  {true, true},
	}
	for _, engine := range engines.Names() {
		w, ok := want[engine]
		if !ok {
			t.Errorf("%s: no expected blocking discipline", engine)
			continue
		}
		st := newStepper(t, engine, stm.MustParsePlan("w0 r0\nw1\nr1"), 4)
		st.step(st.threads[0]) // begins and writes; stays live
		if got := st.admissible(st.threads[1]); got != w.writer {
			t.Errorf("%s: second writer admissible = %v, want %v", engine, got, w.writer)
		}
		if got := st.admissible(st.threads[2]); got != w.reader {
			t.Errorf("%s: reader admissible = %v, want %v", engine, got, w.reader)
		}
	}
}

// TestPolicyWholeTxnExclusion: under gl's policy, a thread cannot begin a
// transaction while another is inside one, and becomes admissible again
// once the first completes.
func TestPolicyWholeTxnExclusion(t *testing.T) {
	p := stm.MustParsePlan("r0\nw0")
	st := newStepper(t, "gl", p, 4)
	a, b := st.threads[0], st.threads[1]

	if !st.admissible(a) || !st.admissible(b) {
		t.Fatal("both threads must be admissible before any begins")
	}
	st.step(a) // a begins and performs its read; still live (commit pending)
	if a.tx == nil {
		t.Fatal("thread a should be inside its transaction")
	}
	if st.admissible(b) {
		t.Error("gl: thread b admissible while a holds the global lock")
	}
	if !st.admissible(a) {
		t.Error("gl: the lock holder itself must stay admissible")
	}
	st.step(a) // a commits
	if !st.admissible(b) {
		t.Error("gl: thread b must be admissible after a completes")
	}
}

// TestPolicyWriterExclusion: under ple's policy, a second writer is
// blocked while the first writer's transaction is live, but readers and
// the lock holder are not.
func TestPolicyWriterExclusion(t *testing.T) {
	p := stm.MustParsePlan("w0 r0\nw1\nr1")
	st := newStepper(t, "ple", p, 4)
	w1, w2, rd := st.threads[0], st.threads[1], st.threads[2]

	st.step(w1) // w1 begins and writes in place: holds the writer lock
	if !w1.wrote {
		t.Fatal("w1 should have written")
	}
	if st.admissible(w2) {
		t.Error("ple: second writer admissible while the writer lock is held")
	}
	if !st.admissible(rd) {
		t.Error("ple: reader blocked by the writer lock")
	}
	if !st.admissible(w1) {
		t.Error("ple: the lock holder must stay admissible")
	}
	st.step(w1) // read
	st.step(w1) // commit, releasing the writer lock
	if !st.admissible(w2) {
		t.Error("ple: second writer must be admissible after release")
	}
}

// TestStepperBackoffSemantics: runnable() lifts backoffs only when no
// thread can step, and reports completion with an empty set.
func TestStepperBackoffSemantics(t *testing.T) {
	p := stm.MustParsePlan("r0\nr0")
	st := newStepper(t, "tl2", p, 4)
	st.threads[0].backoff = true
	buf := make([]int, 0, 2)

	r := st.runnable(buf)
	if len(r) != 1 || r[0] != 1 {
		t.Fatalf("runnable = %v, want [1] (thread 0 backing off)", r)
	}
	st.threads[1].backoff = true
	r = st.runnable(buf)
	// All live threads were backing off: backoffs lift, both run again.
	if len(r) != 2 {
		t.Fatalf("runnable = %v, want both threads after backoff clearing", r)
	}
	for len(r) > 0 {
		st.step(st.threads[r[0]])
		r = st.runnable(buf)
	}
	if st.commits != 2 {
		t.Errorf("commits = %d, want 2", st.commits)
	}
	if !st.threads[0].done || !st.threads[1].done {
		t.Error("threads not done after runnable() returned empty")
	}
}
