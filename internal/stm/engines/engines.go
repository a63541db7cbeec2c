// Package engines is the registry of the STM engines shipped with the
// repository: one row per base engine, holding its name, its constructor
// and its Traits — whether it takes a contention manager, defers its
// updates, survives an abandoned transaction, how it blocks and which of
// its steps commute. TraitsOf is the one way the rest of the tree asks
// what an engine is; Names, CMEngines, Matrix, Parse and New read the
// same table.
//
// Engine names come in two parts: a base engine and an optional
// contention-management suffix, "engine[+cm]" — e.g. "tl2+karma" is TL2
// arbitrating conflicts with the karma policy. Parse is the one place
// the grammar lives; every consumer (ducheck, stmbench, the soak grid,
// certd job specs, the chaos CLI) resolves names through it, so the
// full engine×CM matrix means the same thing everywhere. A bare name
// means the engine's native conflict behavior (fail-fast for
// tl2/norec/etl/pdur, kill-the-owner for dstm), which is also what the
// explicit "+passive" suffix selects for the engines that support CM.
// The CM choice never changes an engine's traits: every policy's waits
// are bounded with an escalation to abort, so a suffix changes how long
// a conflicting step waits, never which steps conflict, what an
// abandoned transaction holds, or whether writes are deferred.
//
// Note "etl+v" is a base engine name (validated etl), not a CM suffix;
// its CM'd forms are "etl+v+<cm>".
package engines

import (
	"fmt"
	"strings"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
	"duopacity/internal/stm/dstm"
	"duopacity/internal/stm/etl"
	"duopacity/internal/stm/gl"
	"duopacity/internal/stm/norec"
	"duopacity/internal/stm/pdur"
	"duopacity/internal/stm/ple"
	"duopacity/internal/stm/tl2"
)

// Blocking is an engine's blocking discipline: which steps can wait for
// another live transaction. The deterministic stepper of internal/harness
// steps only threads whose next step cannot block, so the single real
// goroutine driving every virtual thread never deadlocks.
type Blocking uint8

const (
	// NoBlocking: every operation completes or aborts, so any
	// interleaving is schedulable. A contention manager's waits are
	// bounded and escalate to an abort, so CM'd engines stay here.
	NoBlocking Blocking = iota
	// WriterLock: ple has a writer lock. An attempt's first write waits
	// while another live transaction has written; reads, later writes
	// and commits never wait.
	WriterLock
	// GlobalLock: gl holds its lock from Begin to completion, so
	// beginning a transaction waits while any transaction is live; once
	// inside, every step completes.
	GlobalLock
)

// Commute is an engine's independence relation for schedule
// exploration: which pairs of mid-transaction steps of two threads
// (neither beginning an attempt nor its tryC) leave the engine state,
// the event outcomes and the recorded history's verdict the same in
// either order. It must under-approximate true commutativity. A step
// that can abort never commutes: an abort is a t-completion, which moves
// real-time order.
type Commute uint8

const (
	// NoCommute: no pair is claimed independent. gl admits no co-enabled
	// mid-transaction steps; dstm acquires ownership at writes and
	// validates the whole read set at reads; etl and etl+v write in place
	// under encounter-time locks and may abort at any operation.
	NoCommute Commute = iota
	// BufferedWrites: buffered writes never abort. A mid-transaction
	// write of tl2, norec or pdur only touches transaction-local state,
	// so two writes commute whatever their objects. Reads validate and
	// can abort, so a read commutes with nothing.
	BufferedWrites
	// UnvalidatedReads: ple has a writer lock and unvalidated reads.
	// Reads are plain loads that never fail, so two reads commute, and a
	// read commutes with a write of another object (neither observes the
	// other, and reads never touch the writer lock). Two writes are
	// never co-enabled under the lock and are declared dependent anyway.
	UnvalidatedReads
)

// Traits is what the tooling knows about a base engine.
type Traits struct {
	// CM: the engine accepts a contention-management suffix. gl and ple
	// never conflict (whole-transaction or per-writer exclusion).
	CM bool
	// DeferredUpdate: the engine buffers writes until tryC by
	// construction (gl trivially, holding its lock for the whole
	// transaction), so the paper's Section 5 claim says its histories
	// are du-opaque.
	DeferredUpdate bool
	// KillSafe: a transaction can be abandoned mid-flight (no Commit or
	// Abort, its goroutine just stops) without blocking other threads.
	// tl2, norec and pdur hold no locks outside Commit, and a competitor
	// of obstruction-free dstm can always displace an abandoned owner. gl
	// holds its lock from Begin, and etl and ple lock objects at
	// encounter, so an abandoned transaction there blocks the run.
	KillSafe bool
	// Blocking is the engine's blocking discipline.
	Blocking Blocking
	// Commute is the engine's independence relation.
	Commute Commute
}

// engine is one registry row.
type engine struct {
	name   string
	new    func(objects int, p cm.Policy) stm.Engine
	traits Traits
}

// registry holds one row per base engine, in presentation order.
var registry = []engine{
	{"tl2", func(n int, p cm.Policy) stm.Engine { return tl2.New(n, tl2.WithPolicy(p)) },
		Traits{CM: true, DeferredUpdate: true, KillSafe: true, Commute: BufferedWrites}},
	{"norec", func(n int, p cm.Policy) stm.Engine { return norec.New(n, norec.WithPolicy(p)) },
		Traits{CM: true, DeferredUpdate: true, KillSafe: true, Commute: BufferedWrites}},
	{"dstm", newDSTM,
		Traits{CM: true, DeferredUpdate: true, KillSafe: true}},
	{"etl", func(n int, p cm.Policy) stm.Engine { return etl.New(n, etl.WithPolicy(p)) },
		Traits{CM: true}},
	{"etl+v", func(n int, p cm.Policy) stm.Engine { return etl.New(n, etl.WithValidation(), etl.WithPolicy(p)) },
		Traits{CM: true}},
	{"gl", func(n int, _ cm.Policy) stm.Engine { return gl.New(n) },
		Traits{DeferredUpdate: true, Blocking: GlobalLock}},
	{"ple", func(n int, _ cm.Policy) stm.Engine { return ple.New(n) },
		Traits{Blocking: WriterLock, Commute: UnvalidatedReads}},
	{"pdur", func(n int, p cm.Policy) stm.Engine { return pdur.New(n, pdur.WithPolicy(p)) },
		Traits{CM: true, DeferredUpdate: true, KillSafe: true, Commute: BufferedWrites}},
}

// newDSTM builds bare dstm (kill the conflicting owner) for cm.Passive
// and a cm-arbitrated dstm otherwise.
func newDSTM(n int, p cm.Policy) stm.Engine {
	if p == cm.Passive {
		return dstm.New(n)
	}
	return dstm.New(n, dstm.WithPolicy(p))
}

func row(base string) *engine {
	for i := range registry {
		if registry[i].name == base {
			return &registry[i]
		}
	}
	return nil
}

// Names lists the registered base engine names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// CMEngines lists the base engines that accept a contention-management
// suffix, in Names order.
func CMEngines() []string {
	var out []string
	for _, r := range registry {
		if r.traits.CM {
			out = append(out, r.name)
		}
	}
	return out
}

// Matrix enumerates every valid engine name: the bare base engines plus
// each CM-capable engine with each non-passive policy suffix.
func Matrix() []string {
	out := Names()
	for _, e := range CMEngines() {
		for _, p := range cm.Policies() {
			if p != cm.Passive {
				out = append(out, e+"+"+p.String())
			}
		}
	}
	return out
}

// parse is Parse returning the base engine's row.
func parse(name string) (*engine, cm.Policy, error) {
	if r := row(name); r != nil {
		return r, cm.Passive, nil
	}
	// The CM suffix is the segment after the last '+' ("etl+v+karma"
	// has base "etl+v").
	if i := strings.LastIndexByte(name, '+'); i > 0 {
		if r := row(name[:i]); r != nil {
			p, err := cm.ParsePolicy(name[i+1:])
			if err != nil {
				return nil, 0, fmt.Errorf("engines: %q: %v", name, err)
			}
			if !r.traits.CM {
				return nil, 0, fmt.Errorf("engines: engine %q takes no contention manager (CM-capable: %s)",
					r.name, strings.Join(CMEngines(), ", "))
			}
			return r, p, nil
		}
	}
	return nil, 0, fmt.Errorf("engines: unknown engine %q (valid: %s)",
		name, strings.Join(Matrix(), ", "))
}

// Parse splits an "engine[+cm]" name into its base engine and
// contention-management policy. A bare base name (or an explicit
// "+passive") parses to cm.Passive. Unknown bases, unknown CM names and
// CM suffixes on engines that take none are rejected with the valid
// matrix in the error.
func Parse(name string) (base string, policy cm.Policy, err error) {
	r, policy, err := parse(name)
	if err != nil {
		return "", 0, err
	}
	return r.name, policy, nil
}

// TraitsOf returns the traits of the named engine's base engine; the CM
// suffix never changes them. A name Parse rejects has the zero Traits
// (nothing claimed), which keeps the lookup total.
func TraitsOf(name string) Traits {
	r, _, err := parse(name)
	if err != nil {
		return Traits{}
	}
	return r.traits
}

// New constructs the named engine over the given number of t-objects.
// Names parse through Parse, so the full engine×CM matrix is accepted.
func New(name string, objects int) (stm.Engine, error) {
	r, policy, err := parse(name)
	if err != nil {
		return nil, err
	}
	return r.new(objects, policy), nil
}
