package certd

import (
	"context"
	"testing"
	"time"
)

// TestLoadTestSmoke: a small self-contained load run monitors every
// event it sends, with no violations, drops, or bad input.
func TestLoadTestSmoke(t *testing.T) {
	s := NewServer(Config{})
	addr := startStreams(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := LoadTest(ctx, LoadTestConfig{Addr: addr, Streams: 8, Txns: 50, Retire: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * 50 * 4); rep.Events != want {
		t.Fatalf("monitored %d events, want %d (report %+v)", rep.Events, want, rep)
	}
	if rep.Violations != 0 || rep.Bad != 0 {
		t.Fatalf("clean load run was not clean: %+v", rep)
	}
	if rep.EventsPerSec <= 0 {
		t.Fatalf("no throughput recorded: %+v", rep)
	}
}

// TestLoadTestHundredStreams is the acceptance-scale run: 100 concurrent
// monitored streams, every event monitored under bounded per-stream
// memory (retirement window + scanner buffer), with the stream gauge back
// to zero afterwards.
func TestLoadTestHundredStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("100-stream load run is not -short")
	}
	s := NewServer(Config{})
	addr := startStreams(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := LoadTest(ctx, LoadTestConfig{Addr: addr, Streams: 100, Txns: 50, Retire: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(100 * 50 * 4); rep.Events != want {
		t.Fatalf("monitored %d events, want %d", rep.Events, want)
	}
	if rep.Violations != 0 || rep.Bad != 0 {
		t.Fatalf("clean load run was not clean: %+v", rep)
	}
	snap := s.Stats()
	if snap.Streams.Open != 0 {
		t.Fatalf("streams still open after load run: %+v", snap.Streams)
	}
	if snap.Streams.Total != 100 || snap.Streams.Events != rep.Events {
		t.Fatalf("statsz disagrees with the report: %+v vs %+v", snap.Streams, rep)
	}
	t.Logf("100 streams: %.0f events/sec (avg append %dns)", rep.EventsPerSec, snap.Streams.AvgAppendNanos)
}
