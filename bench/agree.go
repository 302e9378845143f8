package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// agreeFiles compares two result files of the same commit: every
// end-to-end metric of every gated workload must differ by no more than
// its bound, as a share of the first file's value. It prints one row
// per pairing — the host-bound workloads too, marked, without holding
// them to the bounds — and returns the exit code.
func agreeFiles(pathA, pathB string, out io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		fatal(err)
	}
	if a.Env.Seconds != b.Env.Seconds || a.Env.GoVersion != b.Env.GoVersion || a.Env.NumCPU != b.Env.NumCPU {
		fmt.Fprintf(out, "environments differ: %+v vs %+v\n", a.Env, b.Env)
		return 1
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiffers by\tbound\t")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(tw, "%s\tmissing from %s\t\t\t\t\tDISAGREE\n", name, pathB)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			ma, oka := wa.EndToEnd[d.Name]
			mb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				fmt.Fprintf(tw, "%s\t%s\tnot in both files\t\t\t\tDISAGREE\n", name, d.Name)
				code = 1
				continue
			}
			diff := ratio(math.Abs(mb.Value-ma.Value), math.Abs(ma.Value))
			verdict := ""
			switch w := workloadByName(name); {
			case w != nil && w.hostBound:
				verdict = "(host-bound, not gated)"
			case diff > d.Bound:
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.1f%%\t%s\n",
				name, d.Name, ma.Value, mb.Value, 100*diff, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	if code == 0 {
		fmt.Fprintln(out, "the two result files agree within every bound")
	}
	return code
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &resultFile{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
