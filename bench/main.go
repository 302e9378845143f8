// Command bench is the repo's benchmark: duplex stripe.Session pairs
// over loopback sockets, driven through the public API only, plus an
// isolated ladder of the layers underneath. See README.md.
//
//	go run ./bench                          every workload, ladder, traced runs, result file
//	go run ./bench -workload small_tcp      one workload
//	go run ./bench -agree a.json b.json     do two result files of one commit agree?
//
// With -workload and -trace the program makes exactly one run and
// prints, as the last line of standard output, the JSON object the
// benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// hardStop bounds any single invocation that makes one run: whatever
// the watchdog could not unpark ends here, with the stacks on standard
// error, well inside the driver's 180 seconds.
const hardStop = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 1, "seeds the packet-size schedule, the fill and the loss shim")
		seconds = flag.Float64("seconds", 10, "length of the measured window; the same on every commit")
		trace   = flag.String("trace", "", "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
		runs    = flag.Int("runs", 1, "untraced runs per workload, on seeds seed..seed+runs-1; medians are reported")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for the result file, span files and stall dumps")
		agree   = flag.Bool("agree", false, "compare the two result files given as arguments and exit")
	)
	flag.Parse()

	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree needs two result files"))
		}
		os.Exit(agreeFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *name != "" && *trace != "":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *trace != "0" && *trace != "1" {
			fatal(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
		}
		time.AfterFunc(hardStop, func() {
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
			fmt.Fprintln(os.Stderr, "bench: hard stop after", hardStop)
			os.Exit(3)
		})
		rep, err := runOnce(w, runOpts{seed: *seed, seconds: *seconds, traced: *trace == "1", outDir: *outDir})
		if err != nil {
			fatal(err)
		}
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "bench:", w.name+":", p)
		}
		line, err := json.Marshal(rep.driverLine())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*name, *seed, *seconds, *runs, *trace, *outDir))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
