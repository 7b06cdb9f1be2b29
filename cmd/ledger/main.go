// Command ledger compares the repository benchmark across revisions.
//
//	ledger pairs [-a REV] [-b REV] -workload W [-n 10] [-seed 1] [-dir DIR]
//
// pairs exports both revisions' committed files, builds each one's
// benchmark (bench/, its own module) as bench/run.sh does, and runs the
// two binaries at --seconds 4 in ABBA order: pair i runs A first when
// i mod 4 is 0 or 3, so over every four pairs each side runs first, and
// runs second, twice. From each run's output it reads host_ops_per_s,
// setup_s, the two allocation figures and the sim_digest, and prints
// each side's median and quartiles, the Hodges–Lehmann shift of B
// against A over the per-pair differences with its distribution-free
// 95 % interval (from the exact Wilcoxon signed-rank distribution), the
// pairs B wins, each side's setup_s median and its shift, the allocation
// medians, and whether every run's digest agrees.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "pairs" {
		fmt.Fprintln(os.Stderr, "usage: ledger pairs [-a REV] [-b REV] -workload W [-n 10] [-seed 1] [-dir DIR]")
		os.Exit(2)
	}
	if err := pairs(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}
