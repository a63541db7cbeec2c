package harness

import (
	"runtime"
	"strings"
	"testing"
)

// TestEpisodeJSONAllocatesByWhatItReads: an episode text of a million
// separators is refused without the decoder allocating for the verdicts
// they could stand for.
func TestEpisodeJSONAllocatesByWhatItReads(t *testing.T) {
	text := strings.Repeat("|", 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := parseEpisode(text); err == nil {
		t.Fatal("a text of separators parsed")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing %d separators allocated %d bytes", len(text), grew)
	}
}
