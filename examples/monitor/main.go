// Monitor: online checking of a live execution through the streaming
// ingestion surface. A du-opacity monitor is attached to the recorder's
// tap, so every event is certified the moment the engine produces it —
// no replay, no batch re-check. A writer and a reader run against the
// pessimistic in-place engine; the monitor latches the violation at the
// exact response event where the reader observed a value whose writer
// had not invoked tryC — and, thanks to prefix closure (Corollary 2),
// the verdict is final no matter how the execution continues.
package main

import (
	"fmt"
	"log"

	"duopacity"
)

func main() {
	eng, err := duopacity.NewEngine("ple", 1)
	if err != nil {
		log.Fatal(err)
	}
	rec := duopacity.NewRecorder(eng)

	// The live monitor: certification happens while the run is in
	// flight. The tap runs under the recorder's capture mutex, which
	// discharges the monitor's single-goroutine requirement.
	m, err := duopacity.NewMonitor(duopacity.DUOpacity)
	if err != nil {
		log.Fatal(err)
	}
	idx := 0
	rec.Tap(func(e duopacity.Event) {
		v, err := m.Append(e)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d  %-26v %s\n", idx, e, v.Status())
		idx++
	})

	// The Figure-4-shaped run: write, dirty read, reader commits, writer
	// commits. Every line below is printed by the tap as it happens.
	fmt.Println("running the ple execution under the live du-opacity monitor:")
	w := rec.Begin()
	if err := w.Write(0, 42); err != nil {
		log.Fatal(err)
	}
	r := rec.Begin()
	if _, err := r.Read(0); err != nil {
		log.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal verdict: %s\n", m.Verdict())
	fmt.Println("\nper-read analysis:")
	for _, ri := range duopacity.AnalyzeReads(m.History()) {
		fmt.Printf("  %s\n", ri)
	}
	searches, hits := m.Stats()
	fmt.Printf("\nmonitor cost: %d full searches, %d incremental witness reuses\n", searches, hits)
}
