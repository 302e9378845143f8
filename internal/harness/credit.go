package harness

import (
	"fmt"
	"strings"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "credit",
		Title: "Section 6.3: credit-based flow control eliminates congestion loss",
		Run:   runCredit,
	})
}

// runCredit regenerates the fourth Section 6.3 finding: on channels
// with no flow control of their own (UDP), a fast sender overruns the
// receiver's per-channel buffers and loses packets; the Kung-style
// credit scheme — with credits refreshed at the marker cadence —
// eliminates that loss entirely.
func runCredit(cfg Config) *Result {
	total := 20000
	if cfg.Quick {
		total = 4000
	}
	const nch = 2
	const window = 8 * 1024          // credit window per channel, in bytes
	const bufBytes = window + 2*1024 // receive buffer: window plus control-traffic headroom

	type out struct {
		overflow  int64
		delivered int
		ooo       float64
		blocked   int
	}

	run := func(withCredits bool) out {
		rc := rigConfig{
			quanta:  sched.UniformQuanta(nch, 1500),
			markers: core.MarkerPolicy{Every: 4, Position: 0},
			queues:  make([]*channel.Queue, nch),
		}
		// The byte-bounded queue is the receiver's per-channel socket
		// buffer; a full buffer drops arrivals, exactly like UDP.
		for c := range rc.queues {
			rc.queues[c] = channel.NewByteBoundedQueue(channel.Impairments{}, bufBytes)
		}
		if withCredits {
			rc.window = window
		}
		r := newRig(rc)

		sizes := trace.NewBimodal(200, 1000, 0.5, cfg.Seed+6)
		blocked := 0
		// The consumer drains one packet for every producer attempt: the
		// sender is roughly 1.5x faster than the consumer on average, so
		// without flow control the buffers must overflow.
		i, iter := 0, 0
		for i < total {
			iter++
			if r.send(sizes.Next()) {
				i++
			} else {
				blocked++
			}
			// The consumer owns the drain: arrivals stay in the bounded
			// receive buffers until it runs, and it runs at 2/3 the
			// producer's rate, so without credits the buffers overflow.
			if iter%3 == 0 {
				for c := 0; c < nch; c++ {
					r.arrive(c)
				}
				r.deliver(2)
			}
			// Credits refreshed at marker cadence.
			if withCredits && iter%8 == 0 {
				r.refreshCredits(r.reseq.ReleasedBytesOn)
			}
		}
		ids := r.settle()

		var overflow int64
		for _, q := range r.queues {
			overflow += q.Stats().Overflowed
		}
		return out{overflow: overflow, delivered: len(ids), ooo: stats.AnalyzeOrder(ids).OutOfOrderFraction(), blocked: blocked}
	}

	without := run(false)
	with := run(true)

	var b strings.Builder
	fmt.Fprintln(&b, "# Section 6.3 credit-based flow control: 2 UDP-like channels with 10KB")
	fmt.Fprintln(&b, "# receive buffers and a consumer slower than the producer.")
	fmt.Fprintln(&b, row("configuration", "buffer drops", "delivered", "ooo fraction", "sends gated"))
	fmt.Fprintln(&b, row("no flow control",
		fmt.Sprintf("%d", without.overflow),
		fmt.Sprintf("%d/%d", without.delivered, total),
		fmt.Sprintf("%.4f", without.ooo),
		fmt.Sprintf("%d", without.blocked)))
	fmt.Fprintln(&b, row("credits (FCVC, on markers)",
		fmt.Sprintf("%d", with.overflow),
		fmt.Sprintf("%d/%d", with.delivered, total),
		fmt.Sprintf("%.4f", with.ooo),
		fmt.Sprintf("%d", with.blocked)))

	tb := &stats.Table{Title: "Credit flow control", XLabel: "credits(0=off,1=on)", YLabel: "buffer drops", X: []float64{0, 1}}
	tb.AddColumn("drops", []float64{float64(without.overflow), float64(with.overflow)})
	return &Result{ID: "credit", Title: "Credit-based flow control", Text: b.String(), Tables: []*stats.Table{tb}}
}
