// Command stripebench regenerates every table and figure of the
// paper's evaluation. Run it with no arguments for the full suite, or
// name experiments with -exp:
//
//	stripebench                  # everything, full scale
//	stripebench -exp fig15       # one experiment
//	stripebench -exp loss,video  # several
//	stripebench -list            # what exists
//	stripebench -quick           # reduced scale (seconds, not minutes)
//	stripebench -seed 7          # another draw of every random process
//
// It exits 1 when an experiment's invariant checker reports a
// violation. Performance is not measured here: `go run ./bench` is the
// benchmark, and the committed BENCH_<n>.json files are its records.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"stripe/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stripebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		list  = fs.Bool("list", false, "list experiments and exit")
		quick = fs.Bool("quick", false, "reduced-scale runs")
		seed  = fs.Int64("seed", 1, "experiment seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	todo := harness.All()
	if *exp != "" {
		todo = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "stripebench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}
	return runExperiments(todo, harness.Config{Quick: *quick, Seed: *seed}, stdout, stderr)
}

// runExperiments prints each experiment's tables and returns 1 if any
// of them counted an invariant violation.
func runExperiments(todo []harness.Experiment, cfg harness.Config, stdout, stderr io.Writer) int {
	var violations int64
	for _, e := range todo {
		start := time.Now()
		fmt.Fprintf(stdout, "== %s: %s\n", e.ID, e.Title)
		r := e.Run(cfg)
		fmt.Fprintln(stdout, r.Text)
		fmt.Fprintf(stdout, "-- %s finished in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		violations += r.Violations
	}
	if violations != 0 {
		fmt.Fprintf(stderr, "stripebench: %d invariant violations\n", violations)
		return 1
	}
	return 0
}
