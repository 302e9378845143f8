package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"text/tabwriter"
)

// report is everything one run (one workload, one seed, traced or not)
// found out.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Stalled   bool                   `json:"stalled"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts what the timing metrics were read from.
	Samples map[string]int64 `json:"samples"`
	// RTTTail is the highest percentile of the round-trip samples that
	// has at least ten samples beyond it, with its value.
	RTTTail [2]float64 `json:"rtt_tail_percentile_and_us"`
}

// driverLine is the object the benchmark driver reads from the last
// line of standard output.
func (r *report) driverLine() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// traceFlag spells traced the way the -trace flag takes it.
func traceFlag(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

func runFile(outDir, workload string, seed int64, traced bool) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-trace%s.json", workload, seed, traceFlag(traced)))
}

// runOnce makes one run of w and leaves its report in outDir as well.
// A traced run splits the window between an untraced reference and the
// traced pass, each on a fresh pair, and adds the ladder.
func runOnce(w *workload, o runOpts) (*report, error) {
	rep := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Samples: map[string]int64{}}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var ms []*measurement
	if !o.traced {
		m, err := measure(w, o)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
		rep.Metrics = m.endToEndMetrics()
		m.countSamples(rep.Samples)
		rep.Samples["setup"] = int64(len(m.setups))
		rep.Samples["window_slices"] = int64(len(m.snaps) - 1)
	} else {
		var err error
		if rep.Metrics, err = runLadder(o.seed); err != nil {
			return nil, err
		}
		half := o
		half.seconds, half.traced = o.seconds/2, false
		ref, err := measure(w, half)
		if err != nil {
			return nil, err
		}
		half.traced = true
		m, err := measure(w, half)
		if err != nil {
			return nil, err
		}
		ms = append(ms, ref, m)
		for k, v := range m.tracedRunMetrics(w, ref) {
			rep.Metrics[k] = v
		}
		m.countSamples(rep.Samples)
		rtt := slices.Clone(m.rtt)
		slices.Sort(rtt)
		q := tailPercentile(len(rtt))
		rep.RTTTail = [2]float64{q, percentile(rtt, q) / 1e3}
		rep.Samples["arrive_spans"] = int64(len(m.tr.arriveDurations()))
		if err := m.tr.writeSpans(filepath.Join(o.outDir, "spans-"+w.name+".csv")); err != nil {
			return nil, err
		}
	}
	for _, m := range ms {
		rep.Attempted += m.total.sent
		rep.Failed += m.failed(w)
		rep.Problems = append(rep.Problems, m.problems...)
		rep.Stalled = rep.Stalled || m.stalled
	}
	rep.Correct = len(rep.Problems) == 0
	if rep.Attempted == 0 {
		rep.Attempted = 1 // the contract wants at least one; Correct is already false
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(runFile(o.outDir, w.name, o.seed, o.traced), b, 0o644)
}

// countSamples records how many samples each latency array holds.
func (m *measurement) countSamples(into map[string]int64) {
	for _, run := range m.loaded {
		into["latency_under_load"] += int64(len(run))
	}
	into["latency_one_way"] = int64(len(m.oneWay))
	into["rtt"] = int64(len(m.rtt))
	into["samples_not_kept"] = m.latLost
}

// environment is recorded in every result file: numbers from another
// box, or another Go, are not comparable.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs_per_workload"`
	Link       string  `json:"link"`
}

// resultMetric is one metric of one workload in the result file: the
// median over the runs, the runs themselves, and their spread (the
// distance between the quartiles as a share of the median).
type resultMetric struct {
	metricDef
	Value  float64   `json:"value"`
	Runs   []float64 `json:"runs,omitempty"`
	Spread float64   `json:"spread"`
}

type workloadResult struct {
	Why       string                  `json:"why"`
	Correct   bool                    `json:"correct"`
	Stalled   bool                    `json:"stalled"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Problems  []string                `json:"problems,omitempty"`
	EndToEnd  map[string]resultMetric `json:"end_to_end,omitempty"`
	PerLayer  map[string]resultMetric `json:"per_layer,omitempty"`
	Samples   map[string]int64        `json:"samples"`
	RTTTail   [2]float64              `json:"rtt_tail_percentile_and_us"`
}

type resultFile struct {
	Env       environment                `json:"environment"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), which
// is what the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return
	}
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// child runs this program again for one run, as the driver would, and
// returns that run's report. A child that hangs is killed by its own
// hard stop.
func child(exe string, w *workload, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	t := traceFlag(traced)
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: %w", w.name, seed, t, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Correct *bool `json:"correct"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || line.Correct == nil {
		return nil, fmt.Errorf("%s seed %d trace %s: last line of output is not a result: %q", w.name, seed, t, lines[len(lines)-1])
	}
	b, err := os.ReadFile(runFile(outDir, w.name, seed, traced))
	if err != nil {
		return nil, err
	}
	rep := &report{}
	return rep, json.Unmarshal(b, rep)
}

// runAll is the one command: every selected workload untraced (runs
// times) and traced (once), the ladder inside each traced run, the
// table on standard output and the result file in outDir. It returns
// the exit code: non-zero when any verification failed.
func runAll(only string, seed int64, seconds float64, runs int, trace, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	selected := workloads
	if only != "" {
		w := workloadByName(only)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", only))
		}
		selected = []*workload{w}
	}
	res := &resultFile{
		Env: environment{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: seed, Seconds: seconds, Runs: runs,
			Link: "loopback, not a real link",
		},
		Workloads: map[string]*workloadResult{},
	}
	code := 0
	for _, w := range selected {
		wr := &workloadResult{Why: w.why, Correct: true, Samples: map[string]int64{}}
		res.Workloads[w.name] = wr
		fold := func(rep *report, err error) *report {
			if err != nil {
				wr.Correct = false
				wr.Problems = append(wr.Problems, err.Error())
				return nil
			}
			wr.Correct = wr.Correct && rep.Correct
			wr.Stalled = wr.Stalled || rep.Stalled
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			wr.Problems = append(wr.Problems, rep.Problems...)
			for k, n := range rep.Samples {
				wr.Samples[k] += n
			}
			return rep
		}
		if trace != "1" {
			values := map[string][]float64{}
			for r := 0; r < runs; r++ {
				if rep := fold(child(exe, w, seed+int64(r), seconds, false, outDir)); rep != nil {
					for k, v := range rep.Metrics {
						values[k] = append(values[k], v.Value)
					}
				}
			}
			wr.EndToEnd = summarise(endToEnd, values)
		}
		if trace != "0" {
			if rep := fold(child(exe, w, seed, seconds, true, outDir)); rep != nil {
				values := map[string][]float64{}
				for k, v := range rep.Metrics {
					values[k] = []float64{v.Value}
				}
				wr.PerLayer = summarise(perLayer(), values)
				wr.RTTTail = rep.RTTTail
			}
		}
		printWorkload(os.Stdout, w, wr)
		if !wr.Correct {
			code = 1
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	name := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(name, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("result file:", name)
	return code
}

func summarise(defs []metricDef, values map[string][]float64) map[string]resultMetric {
	out := map[string]resultMetric{}
	for _, d := range defs {
		if v := values[d.Name]; len(v) > 0 {
			out[d.Name] = resultMetric{metricDef: d, Value: median(v), Runs: v, Spread: spread(v)}
		}
	}
	return out
}

func printWorkload(out io.Writer, w *workload, wr *workloadResult) {
	verdict := "verified"
	switch {
	case wr.Stalled:
		verdict = "STALLED"
	case !wr.Correct:
		verdict = "FAILED VERIFICATION"
	}
	fmt.Fprintf(out, "\n%s: %s (%d packets attempted, %d failed)\n", w.name, verdict, wr.Attempted, wr.Failed)
	for _, p := range wr.Problems {
		fmt.Fprintln(out, "  problem:", p)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	row := func(defs []metricDef, from map[string]resultMetric) {
		for _, d := range defs {
			m, ok := from[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s is better", d.Name, m.Value, d.Unit, d.Better)
			if len(m.Runs) > 1 {
				fmt.Fprintf(tw, "\tspread %.1f%% over %d runs", 100*m.Spread, len(m.Runs))
			}
			fmt.Fprintln(tw)
		}
	}
	row(endToEnd, wr.EndToEnd)
	row(perLayer(), wr.PerLayer)
	tw.Flush()
}
