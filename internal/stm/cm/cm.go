// Package cm provides pluggable contention management for the STM
// engines: a small policy family — passive (fail fast), exponential
// backoff, karma, greedy — behind one uniform hook that every engine
// calls when it hits a conflict it could either wait out, resolve by
// force, or surrender to.
//
// The design follows the DSTM contention-manager line (Herlihy et al.)
// that the dstm engine previously hardwired: the *engine* detects
// conflicts and the *manager* decides what to do about them. A Source
// is attached to one engine instance and mints a Manager per
// transaction attempt; the engine reports each opened object
// (Manager.Opened — karma's currency) and consults Manager.Conflict at
// every conflict site. Conflict answers one of three resolutions:
//
//   - Wait: back off (Manager.Backoff, a bounded spin) and retry the
//     conflicting operation.
//   - AbortSelf: surrender — roll back and return stm.ErrAborted.
//   - AbortEnemy: kill the opponent and proceed. Only engines that can
//     identify and abort an opponent (dstm's locator CAS) honor this;
//     everyone else must treat it as Wait.
//
// Two properties are load-bearing for the rest of the repo:
//
//  1. Every policy is *bounded*: a transaction that keeps conflicting
//     receives at most a fixed number of Wait resolutions before the
//     manager escalates to AbortSelf (or AbortEnemy where possible).
//     The deterministic stepper (internal/harness) runs every CM'd
//     engine as engines.NoBlocking — each operation either
//     completes or aborts without blocking on another suspended
//     vthread — and an unbounded wait loop would deadlock it. Under
//     the stepper a Wait burns its budget without the opponent
//     advancing and then degrades to fail-fast, which is exactly the
//     passive behavior the exploration results are defined over.
//
//  2. Managers are deterministic: no clocks, no randomness. Backoff is
//     a runtime.Gosched spin, greedy timestamps come from a per-Source
//     counter, karma counts opened objects. Two runs that make the
//     same calls in the same order make the same decisions, which
//     keeps the harness's recorded histories reproducible.
//
// Karma here is per-attempt: the engines mint a fresh transaction per
// attempt (stm.Atomically calls Begin each retry), so priority resets
// on abort rather than accumulating across retries as in the original
// formulation. It still arbitrates by work — a transaction that has
// opened many objects outranks a young one — which is the property the
// benchmarks exercise.
package cm

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
)

// Policy selects a contention-management strategy.
type Policy uint8

const (
	// Passive fails fast: every conflict resolves to AbortSelf. This is
	// the seed behavior of tl2/norec/etl and the default for every
	// engine (a bare engine name means passive).
	Passive Policy = iota
	// Backoff waits out conflicts with exponentially growing bounded
	// spins before surrendering.
	Backoff
	// Karma arbitrates by work: priority is the number of objects the
	// transaction has opened. Lower-priority transactions wait for (or
	// die to) higher-priority ones; against an unknown opponent karma
	// degrades to bounded waiting.
	Karma
	// Greedy arbitrates by age: the transaction with the older
	// timestamp wins. Against an unknown opponent greedy degrades to
	// bounded waiting.
	Greedy

	numPolicies
)

var policyNames = [numPolicies]string{"passive", "backoff", "karma", "greedy"}

func (p Policy) String() string {
	if p < numPolicies {
		return policyNames[p]
	}
	return fmt.Sprintf("cm(%d)", uint8(p))
}

// Policies lists every policy in canonical order.
func Policies() []Policy {
	return []Policy{Passive, Backoff, Karma, Greedy}
}

// Names lists the policy names in canonical order.
func Names() []string {
	out := make([]string, 0, numPolicies)
	for _, p := range Policies() {
		out = append(out, p.String())
	}
	return out
}

// ParsePolicy resolves a policy name. The error lists the valid names.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies() {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown contention manager %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// Resolution is a Manager's answer to a conflict.
type Resolution uint8

const (
	// AbortSelf: roll back and return stm.ErrAborted.
	AbortSelf Resolution = iota
	// Wait: call Manager.Backoff and retry the conflicting operation.
	Wait
	// AbortEnemy: abort the opponent and proceed. Engines that cannot
	// kill an opponent must treat this as Wait.
	AbortEnemy
)

func (r Resolution) String() string {
	switch r {
	case AbortSelf:
		return "abort-self"
	case Wait:
		return "wait"
	case AbortEnemy:
		return "abort-enemy"
	}
	return fmt.Sprintf("resolution(%d)", uint8(r))
}

// waitBudget bounds consecutive Wait resolutions per conflict site so
// every policy terminates under the deterministic stepper (see the
// package comment). 2^waitBudget Gosched calls is the largest single
// backoff.
const waitBudget = 8

// Source mints per-transaction Managers for one engine instance. The
// zero value is a passive source; use NewSource for the others. A
// Source is safe for concurrent use.
type Source struct {
	policy Policy
	births atomic.Int64 // greedy's age counter
}

// NewSource returns a Source minting managers of the given policy.
func NewSource(p Policy) *Source {
	return &Source{policy: p}
}

// Policy reports the policy this source mints.
func (s *Source) Policy() Policy {
	if s == nil {
		return Passive
	}
	return s.policy
}

// Manager carries one transaction attempt's contention state. Like the
// stm.Txn it belongs to, a Manager is not safe for concurrent use —
// except for Priority and Kill-side inspection, which opponents may
// call concurrently (both touch only atomics).
//
// The zero Manager is passive; engines embed it in their pooled txn
// objects and re-arm it with Source.Reset at Begin, so contention
// management adds zero allocations to the transaction hot path.
type Manager struct {
	policy Policy
	birth  int64        // greedy: mint order, older (smaller) wins
	work   atomic.Int64 // karma: objects opened
	waits  int          // consecutive Waits at the current conflict site
}

// Reset re-arms m as a fresh manager of s's policy. A nil source means
// passive. Called by engines at Begin on pooled transactions.
func (s *Source) Reset(m *Manager) {
	if s == nil {
		m.policy = Passive
		m.birth = 0
	} else {
		m.policy = s.policy
		if s.policy == Greedy {
			m.birth = s.births.Add(1)
		}
	}
	m.work.Store(0)
	m.waits = 0
}

// CopyTo makes dst a copy of s — its policy and greedy's age counter —
// for an engine fork (stm.Forkable). Like the fork it serves, it must not
// race with transactions of either engine.
func (s *Source) CopyTo(dst *Source) {
	dst.policy = s.policy
	dst.births.Store(s.births.Load())
}

// CopyTo makes dst a copy of m — policy, age, work and wait budget — for
// an engine fork. Unlike Source.Reset it mints nothing: the copy continues
// the attempt m belongs to.
func (m *Manager) CopyTo(dst *Manager) {
	dst.policy = m.policy
	dst.birth = m.birth
	dst.work.Store(m.work.Load())
	dst.waits = m.waits
}

// Opened records that the transaction opened (read or wrote) one
// object — the karma currency. Cheap enough to call unconditionally.
func (m *Manager) Opened() {
	if m.policy == Karma {
		m.work.Add(1)
	}
}

// Progress tells the manager the conflicting operation finally
// succeeded, resetting the per-site wait budget.
func (m *Manager) Progress() { m.waits = 0 }

// Priority is the manager's standing in its policy's currency, for
// engines that expose it to opponents (dstm). Karma: work done.
// Greedy: negated age, so older is higher. Others: 0. Safe to call on
// an opponent's manager concurrently.
func (m *Manager) Priority() int64 {
	switch m.policy {
	case Karma:
		return m.work.Load()
	case Greedy:
		return -m.birth
	default:
		return 0
	}
}

// Conflict reports a conflict with an opponent and returns the
// resolution. enemy is the opponent's manager when the engine can
// identify one (dstm's locators); nil otherwise. Conflict never
// returns Wait more than waitBudget times in a row at one site: the
// budget exhausts into AbortSelf (or AbortEnemy for policies that
// outrank the opponent), so conflict loops always terminate.
func (m *Manager) Conflict(enemy *Manager) Resolution {
	switch m.policy {
	case Backoff:
		if m.waits < waitBudget {
			m.waits++
			return Wait
		}
		return AbortSelf
	case Karma:
		// Work-based arbitration: the transaction that has opened more
		// objects wins; each wait adds a grievance point so a blocked
		// transaction eventually outranks a stalled owner.
		if enemy != nil && m.work.Load()+int64(m.waits) >= enemy.Priority() {
			return AbortEnemy
		}
		if m.waits >= waitBudget {
			return AbortSelf
		}
		m.waits++
		return Wait
	case Greedy:
		if enemy != nil {
			// Age-based arbitration: older (higher Priority) wins.
			if m.Priority() >= enemy.Priority() {
				return AbortEnemy
			}
		}
		if m.waits >= waitBudget {
			return AbortSelf
		}
		m.waits++
		return Wait
	default: // Passive
		return AbortSelf
	}
}

// Backoff performs the bounded wait backing a Wait resolution: an
// exponentially growing runtime.Gosched spin (1<<waits yields, capped
// by the wait budget). Deterministic — no timers, no randomness — and
// a no-op burn under the single-goroutine stepper.
func (m *Manager) Backoff() {
	n := m.waits
	if n > waitBudget {
		n = waitBudget
	}
	for i := 0; i < 1<<uint(n); i++ {
		runtime.Gosched()
	}
}
