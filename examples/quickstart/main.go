// Quickstart: build a history by hand, check it against the paper's
// criteria, run a real STM transaction and certify what it did, then
// certify a live execution event by event while it runs.
package main

import (
	"fmt"
	"log"

	"duopacity"
)

func main() {
	// 1. A history in the paper's model: T1 writes X=1 and commits; T2
	//    reads X=1 *before* T1 invoked tryC. This is the deferred-update
	//    violation at the heart of the paper: final-state opacity accepts
	//    it (T1 does commit), du-opacity does not.
	b := duopacity.NewBuilder()
	b.InvWrite(1, "X", 1)
	b.ResWrite(1, "X", 1)
	b.Read(2, "X", 1) // responds before tryC_1 is invoked
	b.Commit(2)
	b.Commit(1)
	h := b.History()

	fmt.Println("history:")
	fmt.Print(h)
	fmt.Println("final-state opacity:", duopacity.CheckFinalStateOpacity(h))
	fmt.Println("du-opacity:         ", duopacity.CheckDUOpacity(h))

	// 2. The same pattern through a real deferred-update STM: TL2 never
	//    lets T2 observe the uncommitted write, so the recorded history is
	//    du-opaque.
	eng, err := duopacity.NewEngine("tl2", 1)
	if err != nil {
		log.Fatal(err)
	}
	rec := duopacity.NewRecorder(eng)

	w := rec.Begin()
	if err := w.Write(0, 1); err != nil {
		log.Fatal(err)
	}
	r := rec.Begin()
	v, err := r.Read(0) // TL2 returns the committed value: 0
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nTL2: concurrent reader saw %d (the committed state)\n", v)
	fmt.Println("recorded history verdict:", duopacity.CheckDUOpacity(rec.History()))

	// 3. Certify a run while it happens: after each operation a
	//    du-opacity monitor pulls the events the recorder logged since it
	//    last looked and judges every new prefix. The pessimistic in-place
	//    engine lets the reader see a value whose writer has not invoked
	//    tryC; the monitor latches the violation at that response event
	//    and, by prefix closure (Corollary 2), the verdict is final no
	//    matter how the execution continues.
	eng, err = duopacity.NewEngine("ple", 1)
	if err != nil {
		log.Fatal(err)
	}
	rec = duopacity.NewRecorder(eng)
	m, err := duopacity.NewMonitor(duopacity.DUOpacity)
	if err != nil {
		log.Fatal(err)
	}
	var evs []duopacity.Event
	step := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
		evs = rec.AppendEvents(evs[:0], m.Len())
		for _, e := range evs {
			v, err := m.Append(e)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %2d  %-26v %s\n", m.Len()-1, e, v.Status())
		}
	}

	// The Figure-4-shaped run: write, dirty read, reader commits, writer
	// commits.
	fmt.Println("\nrunning the ple execution under the live du-opacity monitor:")
	w = rec.Begin()
	step(w.Write(0, 42))
	r = rec.Begin()
	_, err = r.Read(0)
	step(err)
	step(r.Commit())
	step(w.Commit())

	fmt.Printf("\nfinal verdict: %s\n", m.Verdict())
	fmt.Println("\nper-read analysis:")
	for _, ri := range duopacity.AnalyzeReads(m.History()) {
		fmt.Printf("  %s\n", ri)
	}
	searches, hits := m.Stats()
	fmt.Printf("\nmonitor cost: %d full searches, %d incremental witness reuses\n", searches, hits)
}
