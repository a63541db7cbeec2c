package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"duopacity/internal/certd"
)

// startHTTP serves a fresh coordinator's HTTP surface on loopback.
func startHTTP(t *testing.T) (*certd.Server, string) {
	t.Helper()
	s := certd.NewServer(certd.Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.ExpireLoop(ctx)
	return s, srv.URL
}

// TestServeSubmitWorkEndToEnd drives the real binary paths: serve binds
// its listeners, submit posts a certify spec from a file, an in-process
// worker drains the shards, and SIGTERM drains the coordinator cleanly.
func TestServeSubmitWorkEndToEnd(t *testing.T) {
	var serveOut bytes.Buffer
	ready := make(chan [2]string, 1)
	serveDone := make(chan int, 1)
	go func() {
		code, err := runServe([]string{"-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0", "-lease-ttl", "2s"}, &serveOut, ready)
		if err != nil {
			t.Errorf("serve: %v", err)
		}
		serveDone <- code
	}()
	var addrs [2]string
	select {
	case addrs = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("serve never bound its listeners")
	}
	base := "http://" + addrs[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &certd.Worker{Client: &certd.Client{Base: base}, Name: "t-worker", Poll: 20 * time.Millisecond}
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = w.Run(ctx) }()

	spec := filepath.Join(t.TempDir(), "spec.json")
	specJSON := `{"kind":"certify","certify":{"config":{"Engine":"tl2","Objects":3,"Goroutines":2,"TxnsPerGoroutine":2,"OpsPerTxn":3,"Seed":7,"Episodes":6,"Interleaved":true},"criteria":["du"]}}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := runSubmit([]string{"-connect", base, "-spec", spec}, strings.NewReader(""), &out)
	if err != nil || code != 0 {
		t.Fatalf("submit: exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "engine tl2: 6 episodes") {
		t.Fatalf("submit did not print the folded report:\n%s", out.String())
	}

	cancel()
	<-workerDone
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-serveDone:
		if code != 0 {
			t.Fatalf("serve exited %d\nout:\n%s", code, serveOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain on SIGTERM")
	}
	if !strings.Contains(serveOut.String(), "drained") {
		t.Fatalf("no drain confirmation:\n%s", serveOut.String())
	}
}

// TestSubmitStdinSpec reads the spec from stdin with -spec -.
func TestSubmitStdinSpec(t *testing.T) {
	srv, base := startHTTP(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &certd.Worker{Client: &certd.Client{Base: base}, Name: "t-stdin", Poll: 20 * time.Millisecond}
	go func() { _ = w.Run(ctx) }()
	_ = srv

	var out bytes.Buffer
	code, err := runSubmit(
		[]string{"-connect", base, "-spec", "-"},
		strings.NewReader(`{"kind":"check","check":{"histories":["write 1 X 1\ncommit 1\n"],"criteria":["du"]}}`),
		&out,
	)
	if err != nil || code != 0 {
		t.Fatalf("submit: exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "du-opacity: OK") {
		t.Fatalf("check verdict missing:\n%s", out.String())
	}
}

// TestLoadtestSelf exercises the one-command benchmark path and its JSON
// output shape.
func TestLoadtestSelf(t *testing.T) {
	var out bytes.Buffer
	code, err := runLoadtest([]string{"-self", "-streams", "4", "-txns", "10", "-json"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("loadtest: exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	var rep certd.LoadTestReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("loadtest JSON unparsable: %v\n%s", err, out.String())
	}
	if rep.Events != 4*10*4 || rep.EventsPerSec <= 0 {
		t.Fatalf("loadtest report wrong: %+v", rep)
	}
}

// TestLoadtestExit pins loadtest's own judgement of a run: exit 0 on a
// clean run, 1 when any line was bad or any stream reported a violation,
// alone or together.
func TestLoadtestExit(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  certd.LoadTestReport
		code int
	}{
		{"pass", certd.LoadTestReport{Events: 100, Streams: 2, EventsPerSec: 20000}, 0},
		{"unclean", certd.LoadTestReport{Events: 100, Streams: 2, EventsPerSec: 20000, Bad: 2, Violations: 1}, 1},
		{"bad", certd.LoadTestReport{Events: 100, Streams: 2, Bad: 1}, 1},
		{"violations", certd.LoadTestReport{Events: 100, Streams: 2, Violations: 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := loadtestExit(&tc.rep); code != tc.code {
				t.Fatalf("exit %d, want %d for %+v", code, tc.code, tc.rep)
			}
		})
	}
}

// TestUsageErrors pins the input-error exits of every subcommand.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"work"},
		{"submit", "-connect", "http://x"},
		{"loadtest"},
	} {
		var out bytes.Buffer
		code, err := run(args, strings.NewReader(""), &out)
		if code != 2 || err == nil {
			t.Errorf("args %q: exit %d, err %v", args, code, err)
		}
	}
}
