// Command bench is the targad benchmark. From the root of a checkout:
//
//	bash bench/run.sh --workload online-json --seed 1 --seconds 10 --trace 0
//
// It builds targad, targad-serve and targad-router from the checkout,
// fits each workload's models with the targad CLI (whose -score output
// is the bitwise oracle), starts the servers, and drives them under a
// fixed load: a warm-up, then a measured window. Every answer is
// checked against the oracle. It prints one "<workload> <metric>
// <value> <unit>" line per metric, writes a result file per workload
// for bench/compare, and ends with one JSON line: the end-to-end
// metrics, or with --trace 1 the per-layer ones, which an in-process
// traced pass and layer-by-layer replays measure. It exits non-zero
// when any operation failed or any score was wrong. README.md lists the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: online-json, bulk-binary, routed-tenants, feedback-retrain, or all")
		seed     = flag.Int64("seed", 1, "seed of every input: data, request pools and schedules")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 adds the in-process traced pass and reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "run every workload with 2 s windows and one set-up, as a quick end-to-end check")
		out      = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files and spans")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	var selected []*spec
	if *smoke || *workload == "all" {
		for i := range specs {
			selected = append(selected, &specs[i])
		}
	} else if w, ok := specByName(*workload); ok {
		selected = append(selected, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The generator is this process: nproc threads and at most nproc
	// connections in total.
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	o := options{
		work:    filepath.Join(root, ".bench_build", "work"),
		out:     *out,
		seed:    *seed,
		warmup:  2 * time.Second,
		window:  time.Duration(*seconds) * time.Second,
		setups:  3,
		trace:   *trace == 1,
		workers: workers,
	}
	if o.trace {
		o.setups = 1 // a traced run reports no set-up time
	}
	if *smoke {
		o.warmup, o.window, o.setups = time.Second, 2*time.Second, 1
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bins, err := buildBinaries(ctx, root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var results []*result
	for _, w := range selected {
		r, err := runWorkload(ctx, w, o, bins)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.print()
		if err := r.save(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		results = append(results, r)
	}
	l := resultLine(results, o.trace)
	raw, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !l.Correct || l.Failed > 0 {
		return 1
	}
	return 0
}
