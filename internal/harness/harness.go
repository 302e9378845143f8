// Package harness contains one runner per table and figure of the
// paper's evaluation (and the ablations listed in DESIGN.md). Each
// experiment reports the same rows or series the paper reports, so the
// whole evaluation regenerates from `go test -bench` or the stripebench
// command. An experiment's text is a pure function of its seed
// (TestGoldenTables pins it) unless it reads the wall clock: flap
// drives a real Session over goroutine-pumped channels, scaling reports
// ns/packet, and faults' three delay-quantile rows come from the
// lifecycle tracer.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"stripe/internal/stats"
)

// Config controls experiment scale.
type Config struct {
	// Quick trades sweep resolution and run length for speed; benches
	// use it, the CLI defaults to full scale.
	Quick bool
	// Seed perturbs every random process in the experiment.
	Seed int64
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Text is the formatted table(s), ready to print.
	Text string
	// Tables carries the structured series for programmatic checks.
	Tables []*stats.Table
	// Violations counts the runtime invariant checker's findings (packet
	// conservation, fairness band, credit conservation) in experiments
	// that attach one; stripebench exits non-zero when it is not zero.
	Violations int64
}

// Experiment is a registered runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// row formats one aligned table row for free-form result text.
func row(cells ...string) string {
	var b strings.Builder
	for i, c := range cells {
		if i == 0 {
			fmt.Fprintf(&b, "%-28s", c)
		} else {
			fmt.Fprintf(&b, " %16s", c)
		}
	}
	return b.String()
}
