package certd

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
)

// recordedWire records one deterministic schedule of w and returns its
// event lines, END included, and the number of events.
func recordedWire(w harness.Workload) ([]byte, int, error) {
	h, _, err := harness.RunInterleaved(w)
	if err != nil {
		return nil, 0, err
	}
	var wire bytes.Buffer
	if err := histio.WriteEvents(&wire, h.Events()); err != nil {
		return nil, 0, err
	}
	wire.WriteString("END\n")
	return wire.Bytes(), h.Len(), nil
}

// handleStreamCases are BenchmarkHandleStream's sessions; TestMain records
// their inputs.
var handleStreamCases = []struct {
	name, hello string
	record      harness.Workload
	wire        []byte
	events      int
}{
	{name: "serial", hello: "STREAM du,tms2,rco,opacity,finalstate retire=32\n",
		record: harness.Workload{Engine: "gl", Goroutines: 4, TxnsPerGoroutine: 2500, Objects: 16, OpsPerTxn: 4, ReadFraction: 0.5, Seed: 1}},
	{name: "concurrent", hello: "STREAM du retire=32\n",
		record: harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 128, OpsPerTxn: 4, ReadFraction: 0.5, Seed: 1}},
}

// TestMain records BenchmarkHandleStream's inputs, once and only when
// benchmarks are to run, before the test binary starts a -cpuprofile: go
// test calls a sub-benchmark's function more than once, and the profile
// should hold the server at work, not the recording.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() != "" {
		for i := range handleStreamCases {
			c := &handleStreamCases[i]
			var err error
			if c.wire, c.events, err = recordedWire(c.record); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	os.Exit(m.Run())
}

// BenchmarkHandleStream is the server side of the benchmark's two follow
// workloads without the benchmark around it: one saturated STREAM session
// per iteration over loopback TCP, echo on, the client discarding what
// comes back. Its CPU profile (-cpuprofile) is the one EXPERIMENTS.md
// reads the transport's share of handleStream from.
func BenchmarkHandleStream(b *testing.B) {
	for _, c := range handleStreamCases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			go func() { _ = NewServer(Config{}).ServeStreams(ln) }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					_, _ = io.WriteString(conn, c.hello)
					_, _ = conn.Write(c.wire)
				}()
				if _, err := io.Copy(io.Discard, conn); err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.events), "ns/event")
		})
	}
}
