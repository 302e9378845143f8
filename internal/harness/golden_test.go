package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExperiments are the experiments whose Quick, Seed 1 text is a
// pure function of the seed; testdata/<id>.golden is that text as the
// parent of the rig refactor printed it. Two registered experiments are
// left out, and why:
//
//   - flap drives a public Session over wall-clock LocalChannels, so how
//     many packets survive each flap depends on goroutine scheduling
//     (consecutive runs on one box printed "delivered 1492/1500" and
//     "1448/1500").
//   - scaling reports a wall-clock ns/packet column.
//
// faults is included with its three tracer rows masked: the lifecycle
// tracer stamps packets with time.Now, so the delay quantiles move from
// run to run while every other line is seeded.
var goldenExperiments = []string{
	"aggregate", "credit", "faults", "fig15", "loss", "markerfreq",
	"markerpos", "quantum", "skew", "srrgrr", "table1", "video",
}

// wallClockRows are the row labels of faults' delay-quantile table.
var wallClockRows = []string{"reseq delay", "head-of-line", "end-to-end"}

// maskWallClock blanks the cells of the wall-clock rows, keeping their
// labels so a missing row still shows up as a difference.
func maskWallClock(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		for _, label := range wallClockRows {
			if strings.HasPrefix(l, label+" ") {
				lines[i] = label + " <wall clock>"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// firstDiff names the first line at which two texts part.
func firstDiff(got, want string) (line int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "<end of text>", "<end of text>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// TestGoldenTables pins every seeded table byte for byte — a refactor
// of the harness is verified by this test staying green, not by eye —
// and checks the determinism the docs claim by running each experiment
// twice.
func TestGoldenTables(t *testing.T) {
	for _, id := range goldenExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q is not registered", id)
			}
			first := maskWallClock(e.Run(quickCfg()).Text)
			second := maskWallClock(e.Run(quickCfg()).Text)
			if n, a, b := firstDiff(first, second); n != 0 {
				t.Fatalf("two runs at one seed differ at line %d:\n first: %s\nsecond: %s", n, a, b)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if n, g, w := firstDiff(first, string(want)); n != 0 {
				t.Fatalf("differs from testdata/%s.golden at line %d:\n got: %s\nwant: %s", id, n, g, w)
			}
		})
	}
}
