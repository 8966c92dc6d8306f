// Command compare judges a change against its parent from two sets of
// benchmark result files, one directory each, paired by workload and
// seed; traced runs pair only with traced runs:
//
//	cd bench && go run ./compare -bench ../BENCHMARK.json base/ head/
//
// For every workload and metric it prints each side's median and
// quartiles, the share of pairs the head won, and a verdict: improved,
// regressed, unchanged or unresolved, by the rules of judge. It exits 1
// when any metric regressed.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

func main() {
	benchPath := flag.String("bench", "../BENCHMARK.json", "BENCHMARK.json holding the end-to-end bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] BASE_DIR HEAD_DIR")
		os.Exit(2)
	}
	bound, err := bounds(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	base, err := loadRuns(flag.Arg(0))
	if err == nil {
		var head map[string]map[int64]*run
		if head, err = loadRuns(flag.Arg(1)); err == nil {
			os.Exit(report(compare(base, head, bound)))
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

// report prints the rows and returns the exit code.
func report(rows []row) int {
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "compare: no workload and seed appears in both sets")
		return 1
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\thead median [q1, q3]\tpairs won\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, r.base[1], r.base[0], r.base[2], r.head[1], r.head[0], r.head[2], r.wins, r.pairs, r.verdict)
		if r.verdict == regressed {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return code
}
