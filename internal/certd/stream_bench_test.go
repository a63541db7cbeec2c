package certd

import (
	"bytes"
	"io"
	"net"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
)

// recordedWire records one deterministic schedule of w and returns its
// event lines, END included, and the number of events.
func recordedWire(tb testing.TB, w harness.Workload) ([]byte, int) {
	tb.Helper()
	h, _, err := harness.RunInterleaved(w)
	if err != nil {
		tb.Fatal(err)
	}
	var wire bytes.Buffer
	if err := histio.WriteEvents(&wire, h.Events()); err != nil {
		tb.Fatal(err)
	}
	wire.WriteString("END\n")
	return wire.Bytes(), h.Len()
}

// BenchmarkHandleStream is the server side of the benchmark's two follow
// workloads without the benchmark around it: one saturated STREAM session
// per iteration over loopback TCP, echo on, the client discarding what
// comes back. Its CPU profile (-cpuprofile) is the one EXPERIMENTS.md
// reads the transport's share of handleStream from.
func BenchmarkHandleStream(b *testing.B) {
	for _, c := range []struct {
		name, hello string
		record      harness.Workload
	}{
		{"serial", "STREAM du,tms2,rco,opacity,finalstate retire=32\n",
			harness.Workload{Engine: "gl", Goroutines: 4, TxnsPerGoroutine: 2500, Objects: 16, OpsPerTxn: 4, ReadFraction: 0.5, Seed: 1}},
		{"concurrent", "STREAM du retire=32\n",
			harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 50, Objects: 128, OpsPerTxn: 4, ReadFraction: 0.5, Seed: 1}},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			wire, events := recordedWire(b, c.record)
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
					_, _ = conn.Write(wire)
				}()
				if _, err := io.Copy(io.Discard, conn); err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
