package certd

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"duopacity/internal/follow"
	"duopacity/internal/spec"
)

// LoadTestConfig parameterizes the streaming load harness: Streams
// concurrent connections each feed Txns synthetic transactions (the CI
// retirement-smoke shape: one write, one commit — four events per
// transaction) through a monitored du-opacity stream.
type LoadTestConfig struct {
	// Addr is the stream listener address ("host:port").
	Addr string
	// Streams is the number of concurrent connections (default 8).
	Streams int
	// Txns per stream (default 250).
	Txns int
	// Retire is the monitor retirement window (default 8), bounding
	// per-stream memory regardless of Txns.
	Retire int
}

func (c LoadTestConfig) withDefaults() LoadTestConfig {
	if c.Streams <= 0 {
		c.Streams = 8
	}
	if c.Txns <= 0 {
		c.Txns = 250
	}
	if c.Retire <= 0 {
		c.Retire = 8
	}
	return c
}

// LoadTestReport aggregates a load-test run. EventsPerSec is the
// headline number (total monitored events over wall-clock time across
// all streams).
type LoadTestReport struct {
	Streams      int     `json:"streams"`
	TxnsPerConn  int     `json:"txns_per_conn"`
	Events       int64   `json:"events"`
	Violations   int64   `json:"violations"`
	Bad          int64   `json:"bad"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// LoadTest drives cfg.Streams concurrent monitored streams against a
// running stream listener and reports aggregate throughput. Every stream
// uses quiet mode (no per-event echo — the monitored-append path is what
// is being measured).
func LoadTest(ctx context.Context, cfg LoadTestConfig) (*LoadTestReport, error) {
	cfg = cfg.withDefaults()
	rep := &LoadTestReport{Streams: cfg.Streams, TxnsPerConn: cfg.Txns}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < cfg.Streams; i++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			done, err := runLoadStream(ctx, cfg, conn)
			mu.Lock()
			defer mu.Unlock()
			rep.Events += int64(done.Events)
			rep.Violations += int64(done.Violations)
			rep.Bad += int64(done.Bad)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("stream %d: %w", conn, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	rep.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		rep.EventsPerSec = float64(rep.Events) / elapsed.Seconds()
	}
	return rep, nil
}

// runLoadStream feeds one connection's worth of synthetic transactions
// and returns the terminal DONE line.
func runLoadStream(ctx context.Context, cfg LoadTestConfig, conn int) (follow.Done, error) {
	d := net.Dialer{}
	c, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return follow.Done{}, err
	}
	defer c.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = c.SetDeadline(deadline)
	}
	w := bufio.NewWriter(c)
	r := bufio.NewScanner(c)
	fmt.Fprintln(w, follow.Options{Criteria: []spec.Criterion{spec.DUOpacity}, Retire: cfg.Retire, Quiet: true}.Hello())
	if err := w.Flush(); err != nil {
		return follow.Done{}, err
	}
	if !r.Scan() {
		return follow.Done{}, fmt.Errorf("no hello response: %v", r.Err())
	}
	if resp := r.Text(); !strings.HasPrefix(resp, "OK ") {
		return follow.Done{}, fmt.Errorf("hello refused: %s", resp)
	}
	for t := 1; t <= cfg.Txns; t++ {
		// Distinct value per (conn, txn) keeps the read-write semantics
		// honest if a workload variant adds reads later.
		fmt.Fprintf(w, "write %d X %d\ncommit %d\n", t, conn*1_000_000+t, t)
	}
	fmt.Fprintln(w, "END")
	if err := w.Flush(); err != nil {
		return follow.Done{}, err
	}
	for r.Scan() {
		if d, ok := follow.ParseDone(r.Text()); ok { // the other lines are the final verdicts
			return d, nil
		}
	}
	return follow.Done{}, fmt.Errorf("stream ended without DONE: %v", r.Err())
}
