package certd

import (
	"fmt"
	"testing"
	"time"
)

// TestGrantSizePolicy pins grantSizeLocked by counts on the fake clock —
// exact and machine-independent, so a change that brings per-shard grants
// back (or lets a grant outgrow a heartbeat interval) fails here, not in a
// benchmark.
func TestGrantSizePolicy(t *testing.T) {
	const ttl = 3 * time.Second

	// run drives an n-shard job to completion: the workers take turns, each
	// polling, "computing" for perShard per granted shard, and delivering.
	// It returns the grant sizes in order.
	run := func(t *testing.T, n int, workers []string, perShard time.Duration) []int {
		clk := newFakeClock()
		s := clockedServer(Config{LeaseTTL: ttl}, clk)
		id, _, err := s.Submit(checkJobSpec(smallHistories(n)...))
		if err != nil {
			t.Fatal(err)
		}
		// Everyone is handed a first grant before anyone delivers, as with
		// workers parked in a long poll when the job arrives.
		first := make([]*LeaseGrant, len(workers))
		for i, w := range workers {
			first[i] = poll(s, w)
		}
		var sizes []int
		clk.Advance(perShard) // they compute side by side
		for i, w := range workers {
			sizes = append(sizes, len(first[i].Shards))
			deliver(t, s, first[i], w)
		}
		for turn := 0; ; turn++ {
			w := workers[turn%len(workers)]
			g := poll(s, w)
			if g == nil {
				break
			}
			sizes = append(sizes, len(g.Shards))
			clk.Advance(time.Duration(len(g.Shards)) * perShard)
			deliver(t, s, g, w)
		}
		if rep, _ := waitReport(t, s, id); rep.Degraded != 0 {
			t.Fatalf("degraded %d", rep.Degraded)
		}
		if exp := s.Metrics.LeasesExpired.Load(); exp != 0 {
			t.Fatalf("%d leases expired in a healthy run", exp)
		}
		if granted, leases := s.Metrics.ShardsGranted.Load(), s.Metrics.LeasesGranted.Load(); granted != int64(n) || leases != int64(len(sizes)) {
			t.Fatalf("ShardsGranted=%d LeasesGranted=%d, want %d and %d", granted, leases, n, len(sizes))
		}
		return sizes
	}

	t.Run("short shards travel in guided batches", func(t *testing.T) {
		sizes := run(t, 200, []string{"w0", "w1"}, 300*time.Microsecond)
		// Two probes, then ceil(pending/4) each time.
		want := "[1 1 50 37 28 21 16 12 9 7 5 4 3 2 1 1 1 1]"
		if fmt.Sprint(sizes) != want {
			t.Fatalf("grant sizes %v\nwant        %s", sizes, want)
		}
	})

	t.Run("a job nobody has delivered for is probed with single shards", func(t *testing.T) {
		clk := newFakeClock()
		s := clockedServer(Config{LeaseTTL: ttl}, clk)
		older := primedJob(t, s, 50, "w0") // a job past its probe does not vouch for the next one
		if _, _, err := s.Submit(checkJobSpec(smallHistories(50)...)); err != nil {
			t.Fatal(err)
		}
		g := poll(s, "w0")
		for ; g.JobID == older; g = poll(s, "w0") {
			deliver(t, s, g, "w0")
		}
		for i := 0; i < 5; i, g = i+1, poll(s, "w0") {
			if len(g.Shards) != 1 {
				t.Fatalf("grant %d of a job with nothing delivered took %v", i, g.Shards)
			}
		}
	})

	t.Run("shards as long as a heartbeat interval travel alone", func(t *testing.T) {
		for _, perShard := range []time.Duration{ttl / 3, ttl/3 + time.Millisecond, 2 * time.Second} {
			for i, n := range run(t, 40, []string{"w0", "w1"}, perShard) {
				if n != 1 {
					t.Fatalf("perShard %v: grant %d took %d shards", perShard, i, n)
				}
			}
		}
	})

	t.Run("a grant's expected compute fits one heartbeat interval", func(t *testing.T) {
		// 100 ms shards: guided would hand out 25 of 98, the budget allows 10.
		sizes := run(t, 100, []string{"w0", "w1"}, 100*time.Millisecond)
		want := "[1 1 10 10 10 10 10 10 10 7 6 4 3 2 2 1 1 1 1]"
		if fmt.Sprint(sizes) != want {
			t.Fatalf("grant sizes %v\nwant        %s", sizes, want)
		}
	})

	t.Run("a worker silent for more than a TTL stops counting", func(t *testing.T) {
		clk := newFakeClock()
		s := clockedServer(Config{LeaseTTL: ttl}, clk)
		primedJob(t, s, 101, "w0")
		deliver(t, s, poll(s, "w1"), "w1") // w1 is seen: W = 2, ceil(100/4)
		if got := s.Metrics.ShardsGranted.Load(); got != 1+25 {
			t.Fatalf("with two workers polling: %d shards granted, want 26", got)
		}
		clk.Advance(ttl) // exactly a TTL ago still counts
		g := poll(s, "w0")
		if len(g.Shards) != 19 { // ceil(75/4)
			t.Fatalf("w1 seen exactly a TTL ago: grant of %d, want 19", len(g.Shards))
		}
		deliver(t, s, g, "w0")
		clk.Advance(time.Millisecond)                // w1 last polled TTL+1ms ago
		if g := poll(s, "w0"); len(g.Shards) != 28 { // ceil(56/2)
			t.Fatalf("w1 silent for over a TTL: grant of %d, want 28", len(g.Shards))
		}
	})
}
