// Certify: the engine acceptance matrix — run every shipped STM engine
// under a contended recorded workload and judge the episodes with the
// paper's criteria. Episodes run under the deterministic interleaved
// scheduler, so the matrix is the same on every machine. The
// deferred-update engines (tl2, norec, dstm, gl, pdur) are accepted on
// every episode they certify. The pessimistic in-place engine (ple) is
// rejected by du-opacity on every episode, as §5 of the paper predicts,
// and on this workload by final-state opacity and strict
// serializability too. The eager engines (etl, etl+v) record every retry
// of an aborted transaction, so most of their episodes exceed the
// transaction cap and are skipped; unvalidated etl fails most of the
// rest. TestCertifyExampleClaims, in the module root, pins these claims
// on the same configuration.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"duopacity"
)

func main() {
	criteria := []duopacity.Criterion{
		duopacity.DUOpacity,
		duopacity.FinalStateOpacity,
		duopacity.StrictSerializability,
	}
	const episodes = 25

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "engine")
	for _, c := range criteria {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw, "\t(accepted episodes)")

	for _, name := range duopacity.EngineNames() {
		stats, err := duopacity.Certify(duopacity.CertConfig{
			Workload: duopacity.Workload{
				Engine:           name,
				Objects:          4,
				Goroutines:       8,
				TxnsPerGoroutine: 3,
				OpsPerTxn:        3,
				ReadFraction:     0.75,
				Seed:             42,
			},
			Episodes:    episodes,
			Interleaved: true,
		}, criteria)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s", name)
		for _, c := range criteria {
			fmt.Fprintf(tw, "\t%d/%d", stats.Accepted[c], stats.Episodes)
		}
		fmt.Fprintf(tw, "\t%d skipped\n", stats.Skipped)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nreading the matrix: tl2, norec, dstm, gl and pdur defer their updates")
	fmt.Println("and pass every criterion on every episode they certify. ple writes in")
	fmt.Println("place and never validates a read: du-opacity rejects every episode, and")
	fmt.Println("on this workload final-state opacity and strict serializability reject")
	fmt.Println("every one too. du-opacity always rejects at least as much as final-state")
	fmt.Println("opacity (Theorem 10). etl and etl+v record every retry of an aborted")
	fmt.Println("transaction, so most of their episodes exceed the transaction cap")
	fmt.Println("(skipped); unvalidated etl fails most of the episodes it certifies.")
	fmt.Println("This is the executable form of the paper's §5 discussion.")
}
