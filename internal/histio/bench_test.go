package histio

import (
	"testing"

	"duopacity/internal/history"
)

// BenchmarkAppendEvents parses the event lines of every event shape into a
// reused slice with warm names: the STREAM path's per-line parse.
func BenchmarkAppendEvents(b *testing.B) {
	var lines [][]byte
	for _, e := range eventShapes(1234, "X17", -42) {
		lines = append(lines, AppendEvent(nil, e))
	}
	names := Names{}
	var dst []history.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = AppendEvents(dst[:0], lines[i%len(lines)], names); err != nil {
			b.Fatal(err)
		}
	}
}
