// Explore: per-plan proofs instead of sampled evidence. The paper's
// headline experiment separates deferred-update engines (du-opaque by
// construction) from the pessimistic in-place engine; sampling shows the
// separation on lucky schedules, but the explorer *decides* it per plan:
// it enumerates every interleaving the engine's Blocking trait allows
// for a litmus plan — with DPOR-style sleep sets, symmetry reduction and
// the prefix-closure cut of Corollary 2 pruning redundant or doomed
// subtrees — and certifies each schedule online. The deferred-update
// engines come out *proven* du-opaque on the plan (full enumeration,
// zero violations); the in-place engine is refuted with the causing
// schedule pinned at the exact event that latched the violation.
package main

import (
	"fmt"
	"log"
	"os"

	"duopacity"
)

func main() {
	// The litmus plan: thread 0 writes X0 and commits; thread 1 reads X0
	// twice. On an engine with in-place writes some schedule lets the
	// reader observe the write before the writer invokes tryC — exactly
	// the deferred-update violation of Definition 3. On a deferred-update
	// engine no schedule can.
	plan, err := duopacity.ParsePlan("w0\nr0 r0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan (one thread per line, '|' between transactions):")
	fmt.Println(plan)
	fmt.Println()

	var reports []duopacity.ExploreReport
	for _, engine := range []string{"tl2", "norec", "gl", "ple"} {
		r, err := duopacity.ExplorePlan(engine, plan, duopacity.ExploreConfig{})
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, r)
	}
	fmt.Print(duopacity.FormatExploreTable(reports))
	fmt.Println()

	for _, r := range reports {
		switch r.Outcome {
		case duopacity.ProvenDUOpaque:
			fmt.Printf("%s: PROVEN du-opaque on this plan — all %d schedules of the stepper's space enumerated, none violates.\n",
				r.Engine, r.Schedules)
		case duopacity.ViolationFound:
			v := r.Violation
			fmt.Printf("%s: REFUTED — schedule %v latches a violation at event %d:\n  %s\n",
				r.Engine, v.Schedule, v.At, v.Verdict.Reason)
			fmt.Println("  violating prefix (every extension violates too, by Corollary 2):")
			_ = duopacity.FormatHistory(os.Stdout, v.History)
		default: // BudgetExhausted (reachable if you grow the plan above)
			fmt.Printf("%s: UNDECIDED — budget exhausted after %d replays (frontier depth %d); no violation found, no proof obtained.\n",
				r.Engine, r.Replays, r.MaxFrontier)
		}
	}
}
