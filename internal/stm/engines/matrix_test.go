package engines

import (
	"testing"

	"duopacity/internal/stm"
	"duopacity/internal/stm/stmtest"
)

// TestEngineCMMatrix runs the stmtest conformance suite over every cell
// of the engine×CM matrix, including pdur — sequential semantics for
// all, concurrent exact-counting invariants for the deferred-update
// engines, which guarantee them (ple's unvalidated reads, base etl's
// zombie reads and etl+v's non-atomic validation window exclude the
// others from Counter/BankInvariant; the existing per-engine tests pin
// etl+v's Counter separately). CI runs
// this test under the race detector as the engine×CM race job.
func TestEngineCMMatrix(t *testing.T) {
	goroutines, txns := 8, 150
	if testing.Short() {
		goroutines, txns = 4, 60
	}
	for _, name := range Matrix() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(objects int) stm.Engine {
				e, err := New(name, objects)
				if err != nil {
					t.Fatalf("New(%q): %v", name, err)
				}
				return e
			}
			stmtest.Basic(t, f)
			stmtest.AbortRollback(t, f)
			stmtest.UserError(t, f)
			stmtest.Smoke(t, f, goroutines, txns)
			if TraitsOf(name).DeferredUpdate {
				stmtest.Counter(t, f, goroutines, txns)
				stmtest.BankInvariant(t, f, goroutines, txns)
			}
		})
	}
}

// TestEngineForks runs the stm.Forkable conformance check over every cell
// of the engine×CM matrix — gl and ple included — so every engine New
// returns forks (the schedule explorer needs nothing else). CI runs it
// under the race detector.
func TestEngineForks(t *testing.T) {
	for i, name := range Matrix() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(objects int) stm.Engine {
				e, err := New(name, objects)
				if err != nil {
					t.Fatalf("New(%q): %v", name, err)
				}
				return e
			}
			b := map[Blocking]stmtest.Blocking{
				NoBlocking: stmtest.NoBlocking,
				WriterLock: stmtest.WriterLock,
				GlobalLock: stmtest.GlobalLock,
			}[TraitsOf(name).Blocking]
			stmtest.Fork(t, f, b, int64(i+1))
		})
	}
}
