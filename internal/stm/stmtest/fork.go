package stmtest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"duopacity/internal/stm"
)

// Blocking names how an engine can make an operation wait for another
// transaction. Fork drives every engine from one goroutine, so its
// scripts skip the operations that would wait.
type Blocking uint8

const (
	// NoBlocking: every operation completes or aborts (tl2, norec, dstm,
	// etl, pdur).
	NoBlocking Blocking = iota
	// WriterLock: a transaction's first write waits while another live
	// transaction has written (ple).
	WriterLock
	// GlobalLock: Begin waits while any transaction is live (gl).
	GlobalLock
)

// Fork is the stm.Forkable conformance check. Random scripts of reads,
// writes, commits and aborts over k transaction slots run on one engine,
// which is forked at a random point of each script; then
//
//   - equivalence: the original and its forks, continued with the rest of
//     the script, return identical values and errors and end in identical
//     committed state;
//   - isolation: a fork's run changes nothing the original observes, and
//     the original's run nothing a fork observes;
//   - pool safety: forking again into an engine whose run committed,
//     aborted and began transactions — reusing only the copies it still
//     has in flight, as the pool rule allows — yields copies no
//     transaction of that engine shares, not even ones begun afterwards
//     (Begin recycles pooled descriptors).
func Fork(t *testing.T, f Factory, b Blocking, seed int64) {
	t.Helper()
	if _, ok := f(1).(stm.Forkable); !ok {
		t.Fatalf("%s does not implement stm.Forkable", f(1).Name())
	}
	const objects, rounds, length = 3, 200, 24
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		k := 1 + rng.Intn(3)
		script := make([]scriptOp, length)
		for i := range script {
			script[i] = scriptOp{slot: rng.Intn(k), kind: "rrwwca"[rng.Intn(6)], obj: rng.Intn(objects), val: int64(i + 1)}
		}
		p := rng.Intn(length + 1)
		o := &forkRun{t: t, b: b, e: f(objects), txns: make([]stm.Txn, k), live: make([]bool, k), wrote: make([]bool, k)}
		o.run(script[:p])
		keep, a, c := o.fork(nil, nil), o.fork(nil, nil), o.fork(nil, nil)

		ranA := a.run(script[p:])
		ranO, endO := o.run(script[p:]), o.finish(objects)
		ranC, endC := c.run(script[p:]), c.finish(objects)
		if ranA != ranO || ranC != ranO || endC != endO {
			t.Fatalf("round %d (k=%d, fork after %d ops): original and forks diverged\noriginal: %s |%s\nfork:     %s\nfork:     %s |%s",
				round, k, p, ranO, endO, ranA, ranC, endC)
		}

		// Fork the prefix world again into a's engine, reusing a's copies
		// still in flight, then begin transactions there.
		a2 := keep.fork(a.e, a)
		seen := append([]stm.Txn(nil), a2.txns...)
		if b != GlobalLock || !a2.anyLive(-1) {
			var extra []stm.Txn
			for i := 0; i < k; i++ {
				tx := a2.e.Begin()
				extra = append(extra, tx)
				seen = append(seen, tx)
				if b == GlobalLock {
					tx.Abort()
				}
			}
			if b != GlobalLock {
				for _, tx := range extra {
					tx.Abort()
				}
			}
		}
		for i, x := range seen {
			for _, y := range seen[i+1:] {
				if x != nil && x == y {
					t.Fatalf("round %d: one transaction descriptor is in flight twice after a fork into a reused engine", round)
				}
			}
		}
		if ran, end := a2.run(script[p:]), a2.finish(objects); ran != ranO || end != endO {
			t.Fatalf("round %d (k=%d, fork after %d ops): a fork into a reused engine diverged\noriginal: %s |%s\nfork:     %s |%s",
				round, k, p, ranO, endO, ran, end)
		}
	}
}

// scriptOp is one step of a fork script: kind 'r', 'w', 'c' or 'a' on the
// transaction in slot, which begins when the slot holds none.
type scriptOp struct {
	slot int
	kind byte
	obj  int
	val  int64
}

// forkRun is one engine under a script: per slot the transaction it
// holds, whether that transaction is still live (no operation returned
// ErrAborted) and whether it has written.
type forkRun struct {
	t     *testing.T
	b     Blocking
	e     stm.Engine
	txns  []stm.Txn
	live  []bool
	wrote []bool
}

// fork copies the run into dst (nil for a new engine), reusing as copy
// targets the transactions reuse still has live in dst.
func (r *forkRun) fork(dst stm.Engine, reuse *forkRun) *forkRun {
	k := len(r.txns)
	c := &forkRun{t: r.t, b: r.b, txns: make([]stm.Txn, k),
		live: append([]bool(nil), r.live...), wrote: append([]bool(nil), r.wrote...)}
	if reuse != nil {
		for s, tx := range reuse.txns {
			if tx != nil && reuse.live[s] {
				c.txns[s] = tx
			}
		}
	}
	c.e = r.e.(stm.Forkable).Fork(dst, r.txns, c.txns)
	for s, tx := range r.txns {
		if tx == nil {
			c.txns[s] = nil // an unused reuse target
			continue
		}
		for _, src := range r.txns {
			if c.txns[s] == src {
				r.t.Fatalf("Fork returned a source transaction as a copy")
			}
		}
	}
	return c
}

// anyLive reports whether a slot other than skip holds a live transaction.
func (r *forkRun) anyLive(skip int) bool {
	for s, tx := range r.txns {
		if s != skip && tx != nil && r.live[s] {
			return true
		}
	}
	return false
}

// otherWriter reports whether a slot other than s holds a live writer.
func (r *forkRun) otherWriter(s int) bool {
	for j, tx := range r.txns {
		if j != s && tx != nil && r.live[j] && r.wrote[j] {
			return true
		}
	}
	return false
}

// run steps the script and returns its transcript.
func (r *forkRun) run(script []scriptOp) string {
	var b strings.Builder
	for _, op := range script {
		b.WriteString(r.step(op))
		b.WriteByte(' ')
	}
	return b.String()
}

func (r *forkRun) step(op scriptOp) string {
	s := op.slot
	if r.txns[s] != nil && !r.live[s] {
		// An operation returned ErrAborted: an abort is the terminal call,
		// anything else drops the handle and starts over.
		if op.kind == 'a' {
			r.txns[s].Abort()
			r.txns[s] = nil
			return "a!"
		}
		r.txns[s] = nil
	}
	if r.txns[s] == nil {
		switch {
		case op.kind == 'c' || op.kind == 'a':
			return "-"
		case r.b == GlobalLock && r.anyLive(s),
			r.b == WriterLock && op.kind == 'w' && r.otherWriter(s):
			return "~"
		}
		r.txns[s], r.live[s], r.wrote[s] = r.e.Begin(), true, false
	}
	tx := r.txns[s]
	switch op.kind {
	case 'r':
		v, err := tx.Read(op.obj)
		if err != nil {
			r.live[s] = false
			return "rA"
		}
		return fmt.Sprintf("r%d", v)
	case 'w':
		if r.b == WriterLock && !r.wrote[s] && r.otherWriter(s) {
			return "~"
		}
		if err := tx.Write(op.obj, op.val); err != nil {
			r.live[s] = false
			return "wA"
		}
		r.wrote[s] = true
		return "w"
	case 'c':
		r.txns[s] = nil
		if tx.Commit() != nil {
			return "cA"
		}
		return "c"
	default:
		r.txns[s] = nil
		tx.Abort()
		return "a"
	}
}

// finish aborts every transaction the run holds and returns the committed
// state, as a fresh transaction reads it.
func (r *forkRun) finish(objects int) string {
	for s, tx := range r.txns {
		if tx != nil {
			tx.Abort()
			r.txns[s] = nil
		}
	}
	var b strings.Builder
	tx := r.e.Begin()
	for o := 0; o < objects; o++ {
		v, err := tx.Read(o)
		fmt.Fprintf(&b, " %d/%v", v, err != nil)
	}
	fmt.Fprintf(&b, " %v", tx.Commit() != nil)
	return b.String()
}
