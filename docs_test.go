package stripe_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteWhatExists keeps ROADMAP aim 1 checkable: a performance
// record a document names is a committed, parseable file, and a
// stripebench invocation it shows uses a flag stripebench has
// (cmd/stripebench's TestFlagSet pins the same four on the real flag
// set; package main cannot be imported from here).
func TestDocsCiteWhatExists(t *testing.T) {
	record := regexp.MustCompile(`BENCH_\w+\.json`)
	invocation := regexp.MustCompile("stripebench( [^`#\n]*)")
	flagName := regexp.MustCompile(` --?([a-z]+)`)
	flags := map[string]bool{"exp": true, "list": true, "quick": true, "seed": true}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range record.FindAllString(string(text), -1) {
			if raw, err := os.ReadFile(name); err != nil {
				t.Errorf("%s cites %s: %v", doc, name, err)
			} else if !json.Valid(raw) {
				t.Errorf("%s cites %s, which is not valid JSON", doc, name)
			}
		}
		for _, inv := range invocation.FindAllStringSubmatch(string(text), -1) {
			for _, f := range flagName.FindAllStringSubmatch(inv[1], -1) {
				if !flags[f[1]] {
					t.Errorf("%s shows `stripebench%s`: no flag -%s", doc, strings.TrimRight(inv[1], " "), f[1])
				}
			}
		}
	}
}
