package duopacity_test

import (
	"strings"
	"testing"

	"duopacity"
)

func TestFacadeHistoryAndCheck(t *testing.T) {
	b := duopacity.NewBuilder()
	b.Write(1, "X", 1)
	b.Commit(1)
	b.Read(2, "X", 1)
	b.Commit(2)
	h := b.History()

	v := duopacity.CheckDUOpacity(h)
	if !v.OK {
		t.Fatalf("du-opacity rejected: %s", v.Reason)
	}
	if err := duopacity.VerifySerialization(h, v.Witness()); err != nil {
		t.Fatalf("witness verification: %v", err)
	}
	for _, c := range duopacity.AllCriteria() {
		if !duopacity.Check(h, c).OK {
			t.Errorf("%s rejected the serial history", c)
		}
	}
	if !duopacity.UniqueWrites(h) {
		t.Error("UniqueWrites should hold")
	}
	s, err := duopacity.RestrictSerialization(h, v.Witness(), 4)
	if err != nil || len(s.Txns) != 1 {
		t.Errorf("RestrictSerialization: %v, %v", s, err)
	}
}

func TestFacadeEnginesAndRecorder(t *testing.T) {
	names := duopacity.EngineNames()
	if len(names) == 0 {
		t.Fatal("no engines")
	}
	eng, err := duopacity.NewEngine("tl2", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := duopacity.Atomically(eng, func(tx duopacity.Txn) error {
		return tx.Write(0, 7)
	}); err != nil {
		t.Fatal(err)
	}

	rec := duopacity.NewRecorder(eng)
	if err := rec.Atomically(func(tx *duopacity.RecordedTxn) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(1, v+1)
	}); err != nil {
		t.Fatal(err)
	}
	h := rec.History()
	// The recorded read of 7 has no writer inside this recording — the
	// facade user must be able to see that in the verdict.
	v := duopacity.CheckDUOpacity(h)
	if v.OK {
		t.Fatal("read of pre-recording state must be rejected (no source in history)")
	}
	if !strings.Contains(v.Reason, "no committable transaction writes") {
		t.Errorf("unexpected reason: %s", v.Reason)
	}
}

func TestFacadeWorkloadAndCertify(t *testing.T) {
	stats, err := duopacity.RunWorkload(duopacity.Workload{
		Engine: "norec", Objects: 4, Goroutines: 2, TxnsPerGoroutine: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Commits != 20 {
		t.Fatalf("commits = %d, want 20", stats.Commits)
	}
	cert, err := duopacity.Certify(duopacity.CertConfig{
		Workload: duopacity.Workload{
			Engine: "tl2", Objects: 4, Goroutines: 2, TxnsPerGoroutine: 3, OpsPerTxn: 2,
		},
		Episodes: 3,
	}, []duopacity.Criterion{duopacity.DUOpacity})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Accepted[duopacity.DUOpacity] != 3 {
		t.Fatalf("accepted = %d, want 3", cert.Accepted[duopacity.DUOpacity])
	}
}

func TestFacadeParseFormat(t *testing.T) {
	h, err := duopacity.ParseHistory(strings.NewReader("write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := duopacity.FormatHistory(&sb, h); err != nil {
		t.Fatal(err)
	}
	back, err := duopacity.ParseHistory(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("round trip changed length: %d -> %d", h.Len(), back.Len())
	}
}

func TestFacadeFromEventsAndOptions(t *testing.T) {
	evs := duopacity.NewBuilder().Write(1, "X", 1).Commit(1).History().Events()
	h, err := duopacity.FromEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	v := duopacity.CheckOpacity(h, duopacity.WithNodeLimit(1_000_000))
	if !v.OK {
		t.Fatalf("opacity rejected: %s", v.Reason)
	}
	if fs := duopacity.CheckFinalStateOpacity(h); !fs.OK {
		t.Fatalf("final-state opacity rejected: %s", fs.Reason)
	}
}
