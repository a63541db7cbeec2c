// Package duopacity is a reproduction of Attiya, Hans, Kuznetsov and Ravi,
// "Safety of Deferred Update in Transactional Memory" (ICDCS 2013): an
// executable model of transactional-memory histories, decision procedures
// for du-opacity and the related correctness criteria the paper compares
// it to, STM engines whose recorded executions those criteria judge, and
// the machinery of the paper's safety proofs (prefix closure, Lemma 1,
// Lemma 4, the König graph of Theorem 5).
//
// This package is the public facade: it re-exports the library surface
// from the internal packages. Typical use:
//
//	b := duopacity.NewBuilder()
//	b.Write(1, "X", 1)
//	b.Commit(1)
//	b.Read(2, "X", 1)
//	b.Commit(2)
//	v := duopacity.CheckDUOpacity(b.History())
//	fmt.Println(v.OK, v.Witness()) // true T1+ T2+
//
// or, running a real STM and certifying what it did:
//
//	eng, _ := duopacity.NewEngine("tl2", 16)
//	rec := duopacity.NewRecorder(eng)
//	// ... run transactions via rec.Begin() / rec.Atomically ...
//	v := duopacity.CheckDUOpacity(rec.History())
//
// Histories being produced are first-class: a Stream ingests events one
// at a time with O(1)-amortized validation and an incrementally
// maintained index, a Monitor certifies a stream online (witness reuse
// makes a monitored stream cost amortized O(1) checks per event instead
// of a batch re-check), and a Monitor pulls a live execution from its
// Recorder's log, so a violation is caught at the event that caused it
// while the STM is still running:
//
//	m, _ := duopacity.NewMonitor(duopacity.DUOpacity)
//	var evs []duopacity.Event
//	// ... after each operation:
//	evs = rec.AppendEvents(evs[:0], m.Len())
//	for _, e := range evs {
//		m.Append(e)
//	}
//	// m.Verdict() judges everything recorded so far
package duopacity

import (
	"context"
	"io"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/koenig"
	"duopacity/internal/recorder"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// Core model types (see internal/history).
type (
	// History is a well-formed sequence of invocation and response events.
	History = history.History
	// Event is a single invocation or response event.
	Event = history.Event
	// TxnID identifies a transaction; 0 is reserved for T_0.
	TxnID = history.TxnID
	// Var names a t-object.
	Var = history.Var
	// Value is the domain of t-object values.
	Value = history.Value
	// Op is a t-operation in a per-transaction view.
	Op = history.Op
	// TxnInfo is the analyzed per-transaction view H|k.
	TxnInfo = history.TxnInfo
	// Seq is a t-complete t-sequential history (a candidate
	// serialization).
	Seq = history.Seq
	// Builder constructs histories fluently.
	Builder = history.Builder
	// Stream ingests a history as it is produced: per-event validation
	// and incremental indexing.
	Stream = history.Stream
)

// Checking types (see internal/spec).
type (
	// Criterion identifies a correctness criterion.
	Criterion = spec.Criterion
	// Verdict is the result of checking a history.
	Verdict = spec.Verdict
	// CheckOption configures a check.
	CheckOption = spec.Option
	// Monitor checks a criterion online while a history is produced.
	Monitor = spec.Monitor
	// ReadInfo is the per-read deferred-update analysis.
	ReadInfo = spec.ReadInfo
)

// The implemented criteria.
const (
	DUOpacity             = spec.DUOpacity
	FinalStateOpacity     = spec.FinalStateOpacity
	Opacity               = spec.Opacity
	TMS2                  = spec.TMS2
	RCO                   = spec.RCO
	StrictSerializability = spec.StrictSerializability
	Serializability       = spec.Serializability
)

// STM types (see internal/stm and internal/recorder).
type (
	// Engine is a software transactional memory.
	Engine = stm.Engine
	// Txn is a transaction in progress.
	Txn = stm.Txn
	// Recorder instruments an engine to capture histories.
	Recorder = recorder.Recorder
	// RecordedTxn is a recorded transaction.
	RecordedTxn = recorder.Txn
	// Plan is a deterministic multi-threaded transactional program — the
	// unit the schedule explorer enumerates.
	Plan = stm.Plan
	// PlanOp is one operation of a planned transaction.
	PlanOp = stm.PlanOp
	// PlanTxn is the operation list of one planned transaction.
	PlanTxn = stm.PlanTxn
)

// Harness types (see internal/harness).
type (
	// Workload parameterizes an engine run.
	Workload = harness.Workload
	// RunStats summarizes a run.
	RunStats = harness.RunStats
	// CertConfig parameterizes certification.
	CertConfig = harness.CertConfig
	// CertStats aggregates certification outcomes.
	CertStats = harness.CertStats
	// OnlineReport is the outcome of one online-monitored episode.
	OnlineReport = harness.OnlineReport
	// ExploreConfig parameterizes an exhaustive schedule exploration.
	ExploreConfig = harness.ExploreConfig
	// ExploreReport is the per-plan verdict of an exploration.
	ExploreReport = harness.ExploreReport
	// ExploreOutcome classifies an exploration's result.
	ExploreOutcome = harness.ExploreOutcome
)

// The exploration outcomes: a plan is proven (every schedule of the
// deterministic stepper's space enumerated, none violates), refuted with
// the causing schedule pinned, or left undecided by the budget.
const (
	ProvenDUOpaque  = harness.ProvenDUOpaque
	ViolationFound  = harness.ViolationFound
	BudgetExhausted = harness.BudgetExhausted
)

// ErrAborted is returned by transactional operations of aborted
// transactions.
var ErrAborted = stm.ErrAborted

// NewBuilder returns an empty history builder.
func NewBuilder() *Builder { return history.NewBuilder() }

// NewStream returns an empty history stream: append events one at a time
// with O(1)-amortized validation, snapshot with Stream.History.
func NewStream() *Stream { return history.NewStream() }

// FromEvents validates evs as a well-formed history.
func FromEvents(evs []Event) (*History, error) { return history.FromEvents(evs) }

// AllCriteria lists every implemented criterion.
func AllCriteria() []Criterion { return spec.AllCriteria() }

// Check dispatches to the checker for the criterion.
func Check(h *History, c Criterion, opts ...CheckOption) Verdict { return spec.Check(h, c, opts...) }

// CheckDUOpacity decides the paper's Definition 3.
func CheckDUOpacity(h *History, opts ...CheckOption) Verdict { return spec.CheckDUOpacity(h, opts...) }

// CheckOpacity decides Definition 5 (every prefix final-state opaque).
func CheckOpacity(h *History, opts ...CheckOption) Verdict { return spec.CheckOpacity(h, opts...) }

// CheckFinalStateOpacity decides Definition 4.
func CheckFinalStateOpacity(h *History, opts ...CheckOption) Verdict {
	return spec.CheckFinalStateOpacity(h, opts...)
}

// WithNodeLimit bounds a check's search.
func WithNodeLimit(n int) CheckOption { return spec.WithNodeLimit(n) }

// WithRetirement lets a Monitor checkpoint and discard its settled
// committed prefix once 2×window transactions are live, bounding memory
// on unbounded streams without changing any verdict. Ignored by batch
// checks.
func WithRetirement(window int) CheckOption { return spec.WithRetirement(window) }

// WithTMS2AbortedReaderExemption drops TMS2 conflict-order edges sourced
// at aborted readers (the alternative reading of the paper's informal
// TMS2 statement; see internal/spec for the interpretation question).
func WithTMS2AbortedReaderExemption() CheckOption { return spec.WithTMS2AbortedReaderExemption() }

// VerifySerialization checks, without search, that s is a du-opaque
// serialization of h.
func VerifySerialization(h *History, s *Seq) error { return spec.VerifySerialization(h, s) }

// UniqueWrites reports Theorem 11's hypothesis: no two transactions write
// the same value to the same object.
func UniqueWrites(h *History) bool { return spec.UniqueWrites(h) }

// NewMonitor returns an online checker for DUOpacity, TMS2, RCO, Opacity
// or FinalStateOpacity (the monitorable criteria); feed it events with
// Append.
func NewMonitor(c Criterion, opts ...CheckOption) (*Monitor, error) {
	return spec.NewMonitor(c, opts...)
}

// AnalyzeReads explains every value-returning read: possible sources and
// which of them had invoked tryC before the read's response.
func AnalyzeReads(h *History) []ReadInfo { return spec.AnalyzeReads(h) }

// RestrictSerialization is Lemma 1's construction: a serialization of the
// length-i prefix whose sequence is a subsequence of seq(s).
func RestrictSerialization(h *History, s *Seq, i int) (*Seq, error) {
	return koenig.RestrictSerialization(h, s, i)
}

// EngineNames lists the shipped STM engines.
func EngineNames() []string { return engines.Names() }

// NewEngine constructs a shipped engine by name ("tl2", "norec", "dstm",
// "etl", "etl+v", "gl", "ple", "pdur").
func NewEngine(name string, objects int) (Engine, error) { return engines.New(name, objects) }

// Atomically runs fn inside transactions of e until one commits.
func Atomically(e Engine, fn func(Txn) error) error { return stm.Atomically(e, fn) }

// NewRecorder instruments eng so concurrent runs produce histories.
func NewRecorder(eng Engine) *Recorder { return recorder.New(eng) }

// RunWorkload executes a workload and returns performance statistics.
func RunWorkload(w Workload) (RunStats, error) { return harness.Run(w) }

// Certify runs recorded episodes of a workload and checks each against the
// criteria.
func Certify(cfg CertConfig, criteria []Criterion) (CertStats, error) {
	return harness.Certify(cfg, criteria)
}

// RunMonitored executes a workload and feeds its recorded log, event by
// event, to an online monitor: the report pins the event that latched a
// violation, and a monitor fault degrades it.
func RunMonitored(w Workload, c Criterion, nodeLimit int, interleaved bool) (OnlineReport, error) {
	return harness.RunMonitored(w, c, nodeLimit, interleaved)
}

// ExplorePlan enumerates every schedule of the deterministic stepper's
// space for the plan — the engine's Blocking trait plus the stepper's
// abort-backoff discipline, the space the interleaved sampler draws from
// — and certifies each online: the per-plan answer is a proof (no
// schedule of that space violates the criterion), a refutation pinned at
// the causing schedule and event, or budget exhaustion.
func ExplorePlan(engine string, p Plan, cfg ExploreConfig) (ExploreReport, error) {
	return harness.ExplorePlanCtx(context.Background(), engine, p, cfg)
}

// ParsePlan reads a plan from its text form: one line per thread, '|'
// between a thread's transactions, "r<obj>"/"w<obj>" operations.
func ParsePlan(src string) (Plan, error) { return stm.ParsePlan(src) }

// FormatExploreTable renders exploration reports as an aligned table,
// one row per report, with any pinned violations below.
func FormatExploreTable(reports []ExploreReport) string {
	return harness.FormatExploreTable(reports)
}

// PlanOfWorkload exposes a workload's seeded per-goroutine transaction
// programs as the Plan its runs execute.
func PlanOfWorkload(w Workload) Plan { return harness.PlanOf(w) }

// ParseHistory reads the text format of cmd/ducheck.
func ParseHistory(r io.Reader) (*History, error) { return histio.Parse(r) }

// FormatHistory writes h in the text format.
func FormatHistory(w io.Writer, h *History) error { return histio.Format(w, h) }
