package harness

import (
	"fmt"
	"strings"
	"time"

	"stripe/internal/core"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "quantum",
		Title: "Ablation: quantum size vs fairness deviation (Theorem 3.2 bound)",
		Run:   runQuantumAblation,
	})
	register(Experiment{
		ID:    "scaling",
		Title: "Ablation: striper+resequencer cost vs channel count",
		Run:   runChannelScaling,
	})
}

// runQuantumAblation sweeps the quantum size and measures the worst
// observed deviation |K*Quantum_i - bytes_i| against the analytic bound
// Max + 2*Quantum. Larger quanta loosen short-term fairness linearly,
// exactly as the bound predicts; quanta below the maximum packet size
// remain fair but cause service skips.
func runQuantumAblation(cfg Config) *Result {
	n := 200000
	if cfg.Quick {
		n = 40000
	}
	const maxPkt = 1500
	multipliers := []float64{0.5, 1, 2, 4, 8, 16}

	var b strings.Builder
	fmt.Fprintln(&b, "# Quantum ablation: 3 equal channels, uniform 1..1500B packets.")
	fmt.Fprintln(&b, row("quantum/maxPkt", "worst deviation", "bound", "within bound"))
	var x, dev, bound []float64
	for _, m := range multipliers {
		q := int64(float64(maxPkt) * m)
		quanta := sched.UniformQuanta(3, q)
		s := sched.MustSRR(quanta)
		sizes := trace.NewUniform(1, maxPkt, cfg.Seed+int64(m*10))
		sent := make([]int64, 3)
		worst := int64(0)
		lastRound := uint64(0)
		for i := 0; i < n; i++ {
			size := sizes.Next()
			c := s.Select()
			sent[c] += int64(size)
			s.Account(size)
			if r := s.Round(); r != lastRound {
				lastRound = r
				for i := range sent {
					d := int64(r)*quanta[i] - sent[i]
					if d < 0 {
						d = -d
					}
					if d > worst {
						worst = d
					}
				}
			}
		}
		bd := sched.FairnessBound(maxPkt, quanta)
		fmt.Fprintln(&b, row(fmt.Sprintf("%.1f", m),
			fmt.Sprintf("%d", worst),
			fmt.Sprintf("%d", bd),
			fmt.Sprintf("%v", worst <= bd)))
		x = append(x, m)
		dev = append(dev, float64(worst))
		bound = append(bound, float64(bd))
	}
	tb := &stats.Table{Title: "Quantum ablation", XLabel: "quantum/maxPkt", YLabel: "bytes", X: x}
	tb.AddColumn("worst deviation", dev)
	tb.AddColumn("bound", bound)
	return &Result{ID: "quantum", Title: "Quantum ablation", Text: b.String(), Tables: []*stats.Table{tb}}
}

// runChannelScaling measures the end-to-end software cost of the
// protocol as channels scale from 2 to 32 — the "scalable" claim in the
// paper's title: per-packet work is O(1) in the number of channels.
func runChannelScaling(cfg Config) *Result {
	n := 200000
	if cfg.Quick {
		n = 50000
	}
	counts := []int{2, 4, 8, 16, 32}

	var b strings.Builder
	fmt.Fprintln(&b, "# Channel scaling: wall-clock cost per packet through striper+resequencer")
	fmt.Fprintln(&b, "# (in-memory channels, no impairments, markers every 4 rounds).")
	fmt.Fprintln(&b, row("channels", "ns/packet", "packets", "fifo ok"))
	var x, nsPkt []float64
	for _, nch := range counts {
		r := newRig(rigConfig{
			quanta:  sched.UniformQuanta(nch, 1500),
			markers: core.MarkerPolicy{Every: 4, Position: 0},
		})
		sizes := trace.NewBimodal(200, 1000, 0.5, cfg.Seed)
		start := time.Now()
		for i := 0; i < n; i++ {
			r.send(sizes.Next())
			// Service arrivals round-robin, one per channel per send.
			for c := 0; c < nch; c++ {
				r.arrive(c)
			}
			r.deliver(0)
		}
		elapsed := time.Since(start)
		perPkt := float64(elapsed.Nanoseconds()) / float64(n)
		delivered := len(r.ids)
		inOrder := true
		for i, id := range r.ids {
			if id != uint64(i) {
				inOrder = false
			}
		}
		fmt.Fprintln(&b, row(fmt.Sprintf("%d", nch),
			fmt.Sprintf("%.0f", perPkt),
			fmt.Sprintf("%d", delivered),
			fmt.Sprintf("%v", inOrder)))
		x = append(x, float64(nch))
		nsPkt = append(nsPkt, perPkt)
	}
	tb := &stats.Table{Title: "Channel scaling", XLabel: "channels", YLabel: "ns/packet", X: x}
	tb.AddColumn("ns/packet", nsPkt)
	return &Result{ID: "scaling", Title: "Channel scaling", Text: b.String(), Tables: []*stats.Table{tb}}
}
