// Command csrsolve solves a CSR instance file with a chosen algorithm and
// prints the inferred contig layout, score, and matches.
//
// Usage:
//
//	csrsolve -algo csr-improve instance.csr
//	csrsolve -algo exact -list
package main

import (
	"flag"
	"fmt"
	"os"

	fragalign "repro"
)

func main() {
	var (
		algo    = flag.String("algo", "csr-improve", "algorithm (see -list)")
		list    = flag.Bool("list", false, "list algorithms and exit")
		workers = flag.Int("workers", 1, "worker goroutines of the exact solver's layout enumeration (other algorithms run on one goroutine)")
		eps     = flag.Float64("eps", 0.05, "scaling slack for improvement algorithms")
		seed4   = flag.Bool("seed4", true, "seed improvement with the 4-approximation")
	)
	flag.Parse()
	if *list {
		for _, a := range fragalign.Algorithms() {
			fmt.Println(a)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: csrsolve [-algo name] instance.csr")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrsolve:", err)
		os.Exit(1)
	}
	defer f.Close()
	in, err := fragalign.ReadInstance(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrsolve:", err)
		os.Exit(1)
	}
	res, err := fragalign.Solve(in, fragalign.Algorithm(*algo),
		fragalign.WithWorkers(*workers),
		fragalign.WithEps(*eps),
		fragalign.WithFourApproxSeed(*seed4),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrsolve:", err)
		os.Exit(1)
	}
	fmt.Print(fragalign.FormatResult(in, res))
}
