package stmtest_test

import (
	"testing"

	"duopacity/internal/stm"
	"duopacity/internal/stm/cm"
	"duopacity/internal/stm/gl"
	"duopacity/internal/stm/stmtest"
	"duopacity/internal/stm/tl2"
)

// The conformance suite's own test: every helper must run to completion —
// and pass — against the two reference engines at the ends of the design
// space, the serial global-lock baseline and the deferred-update tl2.
// Running here (rather than only via the engine packages) keeps the suite
// itself exercised under -race even as engine tests evolve.

func glFactory(objects int) stm.Engine  { return gl.New(objects) }
func tl2Factory(objects int) stm.Engine { return tl2.New(objects, cm.Passive) }

func TestSuiteAgainstGlobalLock(t *testing.T) {
	stmtest.Basic(t, glFactory)
	stmtest.AbortRollback(t, glFactory)
	stmtest.UserError(t, glFactory)
	stmtest.Counter(t, glFactory, 4, 100)
	stmtest.BankInvariant(t, glFactory, 6, 150)
	stmtest.Smoke(t, glFactory, 4, 100)
}

func TestSuiteAgainstTL2(t *testing.T) {
	stmtest.Basic(t, tl2Factory)
	stmtest.AbortRollback(t, tl2Factory)
	stmtest.UserError(t, tl2Factory)
	stmtest.Counter(t, tl2Factory, 4, 100)
	stmtest.BankInvariant(t, tl2Factory, 6, 150)
	stmtest.Smoke(t, tl2Factory, 4, 100)
}
