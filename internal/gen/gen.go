// Package gen generates transactional histories for property-based testing
// and benchmarking of the checkers in package spec.
//
// Three sources:
//
//   - Serial: a legal t-sequential execution with randomly shaped
//     transactions (committed, aborted, commit-pending, never-t-complete,
//     or cut mid-operation).
//   - DUOpaque: a Serial base relaxed into a genuinely concurrent history
//     by sound event moves (invocations travel earlier, responses travel
//     later). Widening an operation's invocation–response window can only
//     erase real-time constraints and can never invalidate the base
//     serialization's legality or deferred-update condition, so the result
//     is du-opaque by construction and the base order is a witness.
//   - Mutators that plant specific violations (reads from the future,
//     sourceless values, reads from aborted writers) with guaranteed
//     detection under unique writes.
package gen

import (
	"math/rand"

	"duopacity/internal/history"
	"duopacity/internal/lazyrand"
)

// Config parameterizes generation. The zero value is not useful; call
// (Config).withDefaults or use the exported generator functions, which
// apply defaults.
type Config struct {
	Txns      int // number of transactions (default 6)
	Objects   int // number of t-objects (default 3)
	OpsPerTxn int // operations per transaction before the ending (default 3)
	// ReadFraction is the probability that a generated operation is a
	// read (default 0.5). 0 means unset; pass any negative value for an
	// explicit zero — write-only histories (the harness.Workload
	// contract).
	ReadFraction float64
	// UniqueWrites makes every written value globally unique (Theorem 11's
	// hypothesis); otherwise values are drawn from [1, ValueRange].
	UniqueWrites bool
	ValueRange   int64 // default 3
	// Shape probabilities (the remainder commits): aborted via tryC->A,
	// commit-pending (tryC invoked, no response), never invoking tryC, and
	// cut with a pending operation.
	PAbort         float64
	PCommitPending float64
	PNoTryC        float64
	PPendingOp     float64
	// Relax scales how many adjacent-swap passes loosen the serial base
	// (default 4; 0 keeps the history t-sequential).
	Relax int
	Seed  int64
}

// ExplicitReadFraction maps a user-facing read-fraction value (a CLI
// flag, say) onto the sentinel contract shared by Config.ReadFraction
// and harness.Workload.ReadFraction, where the zero value means "unset"
// (default 0.5): an explicit 0 becomes the documented negative spelling,
// so write-only histories and workloads stay expressible.
func ExplicitReadFraction(f float64) float64 {
	if f == 0 {
		return -1
	}
	return f
}

func (c Config) withDefaults() Config {
	if c.Txns == 0 {
		c.Txns = 6
	}
	if c.Objects == 0 {
		c.Objects = 3
	}
	if c.OpsPerTxn == 0 {
		c.OpsPerTxn = 3
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	} else if c.ReadFraction < 0 {
		c.ReadFraction = 0 // the documented "explicit zero": write-only
	}
	if c.ValueRange == 0 {
		c.ValueRange = 3
	}
	if c.Relax == 0 {
		c.Relax = 4
	}
	return c
}

// shape is the planned ending of a transaction.
type shape uint8

const (
	shapeCommit shape = iota + 1
	shapeAbort
	shapeCommitPending
	shapeNoTryC
	shapePendingOp
)

// Witness is the correct-by-construction serialization of a generated
// history: the serial base order with its commit decisions.
type Witness struct {
	Order  []history.TxnID
	Commit map[history.TxnID]bool
}

// Serial generates a legal t-sequential history (no relaxation).
func Serial(cfg Config) *history.History {
	cfg = cfg.withDefaults()
	cfg.Relax = -1
	h, _ := DUOpaqueWithWitness(cfg)
	return h
}

// DUOpaque generates a du-opaque concurrent history.
func DUOpaque(cfg Config) *history.History {
	h, _ := DUOpaqueWithWitness(cfg)
	return h
}

// DUOpaqueWithWitness generates a du-opaque history together with the
// serialization that witnesses it.
func DUOpaqueWithWitness(cfg Config) (*history.History, Witness) {
	cfg = cfg.withDefaults()
	rng := lazyrand.New(cfg.Seed)

	state := make([]history.Value, cfg.Objects) // committed state
	nextVal := int64(0)
	value := func() history.Value {
		if cfg.UniqueWrites {
			nextVal++
			return history.Value(nextVal)
		}
		return history.Value(1 + rng.Int63n(cfg.ValueRange))
	}

	w := Witness{Commit: make(map[history.TxnID]bool)}
	var evs []history.Event
	for k := history.TxnID(1); int(k) <= cfg.Txns; k++ {
		sh := shapeCommit
		switch p := rng.Float64(); {
		case p < cfg.PAbort:
			sh = shapeAbort
		case p < cfg.PAbort+cfg.PCommitPending:
			sh = shapeCommitPending
		case p < cfg.PAbort+cfg.PCommitPending+cfg.PNoTryC:
			sh = shapeNoTryC
		case p < cfg.PAbort+cfg.PCommitPending+cfg.PNoTryC+cfg.PPendingOp:
			sh = shapePendingOp
		}
		w.Order = append(w.Order, k)
		w.Commit[k] = sh == shapeCommit || sh == shapeCommitPending

		overlay := make(map[int]history.Value)
		nops := 1 + rng.Intn(cfg.OpsPerTxn)
		for j := 0; j < nops; j++ {
			obj := rng.Intn(cfg.Objects)
			x := objVar(obj)
			cut := sh == shapePendingOp && j == nops-1
			if rng.Float64() < cfg.ReadFraction {
				evs = append(evs, history.Event{Kind: history.Inv, Op: history.OpRead, Txn: k, Obj: x})
				if cut {
					break
				}
				v, ok := overlay[obj]
				if !ok {
					v = state[obj]
				}
				evs = append(evs, history.Event{Kind: history.Res, Op: history.OpRead, Txn: k, Obj: x, Val: v, Out: history.OutOK})
			} else {
				v := value()
				evs = append(evs, history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: k, Obj: x, Arg: v})
				if cut {
					break
				}
				evs = append(evs, history.Event{Kind: history.Res, Op: history.OpWrite, Txn: k, Obj: x, Arg: v, Out: history.OutOK})
				overlay[obj] = v
			}
		}
		switch sh {
		case shapeCommit:
			evs = append(evs,
				history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: k},
				history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: k, Out: history.OutCommit})
		case shapeAbort:
			evs = append(evs,
				history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: k},
				history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: k, Out: history.OutAbort})
		case shapeCommitPending:
			evs = append(evs, history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: k})
		case shapeNoTryC, shapePendingOp:
			// Nothing: complete-but-not-t-complete, or already cut.
		}
		if w.Commit[k] {
			// Commit-pending transactions count as committed in the base
			// state evolution; the witness commits them.
			for obj, v := range overlay {
				state[obj] = v
			}
		}
	}

	if cfg.Relax > 0 {
		relax(evs, cfg.Relax*len(evs), rng)
	}
	return history.MustFromEvents(evs), w
}

// relax performs sound adjacent swaps: an invocation may travel earlier
// past events of other transactions, and a response may travel later. Both
// moves only widen operation windows, which can only erase real-time
// constraints; legality and the deferred-update condition of the base
// serialization are untouched (read responses only move later, and tryC
// invocations only move earlier).
func relax(evs []history.Event, passes int, rng *rand.Rand) {
	if len(evs) < 2 {
		return
	}
	for p := 0; p < passes; p++ {
		i := rng.Intn(len(evs) - 1)
		a, b := evs[i], evs[i+1]
		if a.Txn == b.Txn {
			continue
		}
		if b.Kind == history.Inv || a.Kind == history.Res {
			evs[i], evs[i+1] = b, a
		}
	}
}

func objVar(obj int) history.Var {
	return history.Var("X" + string(rune('A'+obj%26)) + suffix(obj/26))
}

func suffix(n int) string {
	if n == 0 {
		return ""
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}
