package main

import (
	"bytes"
	"strings"
	"testing"

	"stripe/internal/harness"
)

// runCLI drives run the way main does and captures both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsEveryExperimentOnce(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list returned %d", code)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		seen[strings.Fields(line)[0]]++
	}
	all := harness.All()
	if len(seen) != len(all) {
		t.Errorf("-list printed %d ids, harness.All() has %d", len(seen), len(all))
	}
	for _, e := range all {
		if seen[e.ID] != 1 {
			t.Errorf("experiment %q listed %d times", e.ID, seen[e.ID])
		}
	}
}

func TestUnknownExperimentIsNamed(t *testing.T) {
	code, _, errOut := runCLI("-exp", "srrgrr,nosuchexp")
	if code != 2 || !strings.Contains(errOut, `"nosuchexp"`) {
		t.Errorf("got exit %d, stderr %q; want 2 and the unknown id", code, errOut)
	}
}

// The flag set is exactly the paper-experiment one: the perf record
// flags went with the record (the benchmark is ./bench).
func TestFlagSet(t *testing.T) {
	for _, gone := range []string{"json", "compare"} {
		code, out, errOut := runCLI("-" + gone)
		if code != 2 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("-%s: exit %d, stderr %q; want it rejected as unknown", gone, code, errOut)
		}
		if out != "" {
			t.Errorf("-%s: ran something before rejecting the flag: %q", gone, out)
		}
	}
	// -h prints the real flag set; the root package's doc test keeps the
	// same four names for the invocations the docs show.
	_, _, usage := runCLI("-h")
	for _, name := range []string{"exp", "list", "quick", "seed"} {
		if !strings.Contains(usage, "  -"+name) {
			t.Errorf("usage lacks -%s:\n%s", name, usage)
		}
	}
	if n := strings.Count(usage, "\n  -"); n != 4 {
		t.Errorf("usage shows %d flags, want 4:\n%s", n, usage)
	}
}

func TestQuickExperimentRuns(t *testing.T) {
	e, _ := harness.ByID("srrgrr")
	code, out, errOut := runCLI("-exp", "srrgrr", "-quick")
	if code != 0 || !strings.Contains(out, e.Title) {
		t.Errorf("exit %d, stderr %q, stdout lacks title %q:\n%s", code, errOut, e.Title, out)
	}
}

func TestViolationsFailTheRun(t *testing.T) {
	ran := 0
	exp := func(v int64) harness.Experiment {
		return harness.Experiment{ID: "fake", Title: "fake", Run: func(harness.Config) *harness.Result {
			ran++
			return &harness.Result{Text: "table", Violations: v}
		}}
	}
	var out, errb bytes.Buffer
	if code := runExperiments([]harness.Experiment{exp(0), exp(0)}, harness.Config{}, &out, &errb); code != 0 {
		t.Errorf("clean run returned %d (%s)", code, errb.String())
	}
	// A violation does not stop later experiments from running.
	code := runExperiments([]harness.Experiment{exp(3), exp(0)}, harness.Config{}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "3 invariant violations") {
		t.Errorf("got exit %d, stderr %q; want 1 and the count", code, errb.String())
	}
	if ran != 4 {
		t.Errorf("%d experiments ran, want 4", ran)
	}
}
