// Command litmus reproduces the paper's figures: it runs every litmus
// history (Figures 1–6 plus auxiliary cases) through every implemented
// criterion and prints the verdict matrix, comparing against the expected
// verdicts. A mismatch makes the command exit nonzero.
//
// Usage:
//
//	litmus [-case name] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("litmus", flag.ContinueOnError)
	caseName := fs.String("case", "", "run only the named case")
	verbose := fs.Bool("v", false, "print each history and witness serializations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cases := litmus.Cases()
	if *caseName != "" {
		c := litmus.ByName(*caseName)
		if c == nil {
			return fmt.Errorf("unknown case %q", *caseName)
		}
		cases = []litmus.Case{*c}
	}
	criteria := spec.AllCriteria()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "case")
	for _, c := range criteria {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)

	mismatches := 0
	for _, lc := range cases {
		fmt.Fprint(tw, lc.Name)
		for _, crit := range criteria {
			v := spec.Check(lc.H, crit)
			cell := "✗"
			if v.OK {
				cell = "✓"
			}
			if want, ok := lc.Expect[crit]; ok && v.OK != want {
				cell += "!MISMATCH"
				mismatches++
			}
			fmt.Fprintf(tw, "\t%s", cell)
		}
		fmt.Fprintln(tw)
		if *verbose {
			_ = tw.Flush()
			fmt.Printf("\n%s — %s\n%s", lc.Name, lc.Desc, lc.H)
			if v := spec.CheckDUOpacity(lc.H); v.OK {
				fmt.Printf("du-opaque serialization: %s\n\n", v.Witness())
			} else {
				fmt.Printf("du-opacity refutation: %s\n\n", v.Reason)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if mismatches > 0 {
		return fmt.Errorf("%d verdicts differ from the paper's expectations", mismatches)
	}
	fmt.Println("\nall verdicts match the paper")
	return nil
}
