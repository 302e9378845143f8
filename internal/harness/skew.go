package harness

import (
	"fmt"
	"strings"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/packet"
	"stripe/internal/sched"
	"stripe/internal/sim"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "skew",
		Title: "Ablation: FIFO delivery and buffering vs channel skew (Section 4's claim)",
		Run:   runSkew,
	})
}

type skewOut struct {
	ooo       int
	maxBuf    int
	meanLatMs float64
	p99LatMs  float64
	delivered int
}

// runSkewOne runs one (skew, mode) point: an open-loop Poisson source
// striped over two equal-rate links whose propagation delays differ by
// skewMs.
func runSkewOne(cfg Config, skewMs float64, mode core.Mode, count int64) skewOut {
	s := sim.New()
	sink := sim.NewSink(s)
	maxBuf := 0
	// The lines are the simulator's links: each delivers into the host's
	// NIC, and the host's interrupt handler is the rig's arrival and
	// delivery.
	var r *rig
	host, err := sim.NewHost(s, 2, sim.CPUConfig{PerInterrupt: sim.Microsecond, PerPacket: sim.Microsecond},
		func(nic int, p *packet.Packet) {
			r.reseq.Arrive(nic, p)
			maxBuf = max(maxBuf, r.reseq.Buffered())
			for _, q := range r.deliver(0) {
				sink.Deliver(q)
			}
		})
	if err != nil {
		panic(err)
	}
	delays := []sim.Time{sim.Millisecond, sim.Millisecond + sim.Time(skewMs*float64(sim.Millisecond))}
	r = newRig(rigConfig{
		quanta:  sched.UniformQuanta(2, 1500),
		mode:    mode,
		markers: core.MarkerPolicy{Every: 8, Position: 0},
		sender: func(c int, _ *channel.Queue) channel.Sender {
			return must(sim.NewLink(s, fmt.Sprintf("l%d", c), sim.LinkConfig{
				RateBps: 10e6,
				Delay:   delays[c],
				Queue:   4096,
				Seed:    cfg.Seed + int64(c),
			}, host.NICInput(c)))
		},
	})

	// An open-loop Poisson source at ~70% of the 20 Mb/s aggregate
	// (mean 600 B at ~2900 pps).
	src, err := sim.NewSource(s, r.striper, trace.NewBimodal(200, 1000, 0.5, cfg.Seed+31),
		trace.NewPoisson(343e3, cfg.Seed+32), count)
	if err != nil {
		panic(err)
	}
	sink.SendTime = src.SendTime
	src.Start()
	s.Run(sim.Time(count)*400*sim.Microsecond + sim.Second)

	return skewOut{
		ooo:       stats.AnalyzeOrder(sink.IDs).OutOfOrder,
		maxBuf:    maxBuf,
		meanLatMs: sink.MeanLatency() / 1e6,
		p99LatMs:  float64(stats.Quantile(sink.LatencyNs, 0.99)) / 1e6,
		delivered: len(sink.IDs),
	}
}

// runSkew sweeps the inter-channel skew and compares logical reception
// against no resequencing: LR must deliver FIFO at any skew, paying
// with buffer occupancy proportional to skew x packet rate, while the
// unresequenced baseline misorders more as skew grows.
func runSkew(cfg Config) *Result {
	count := int64(20000)
	if cfg.Quick {
		count = 4000
	}
	skewsMs := []float64{0, 0.5, 1, 2, 5, 10, 20}

	var b strings.Builder
	fmt.Fprintln(&b, "# Skew ablation: 2x10 Mb/s links, Poisson source at ~70% load; link 1's")
	fmt.Fprintln(&b, "# extra propagation delay swept. LR = logical reception; none = arrival order.")
	fmt.Fprintln(&b, row("skew (ms)", "ooo (LR)", "ooo (none)", "max buffered (LR)", "mean lat ms (LR)", "p99 lat ms (LR)"))
	var x, oooLR, oooNone, buf []float64
	for _, skew := range skewsMs {
		lr := runSkewOne(cfg, skew, core.ModeLogical, count)
		nr := runSkewOne(cfg, skew, core.ModeNone, count)
		fmt.Fprintln(&b, row(fmt.Sprintf("%.1f", skew),
			fmt.Sprintf("%d", lr.ooo),
			fmt.Sprintf("%d", nr.ooo),
			fmt.Sprintf("%d", lr.maxBuf),
			fmt.Sprintf("%.2f", lr.meanLatMs),
			fmt.Sprintf("%.2f", lr.p99LatMs)))
		x = append(x, skew)
		oooLR = append(oooLR, float64(lr.ooo))
		oooNone = append(oooNone, float64(nr.ooo))
		buf = append(buf, float64(lr.maxBuf))
	}
	tb := &stats.Table{Title: "Skew ablation", XLabel: "skew ms", YLabel: "ooo / buffered", X: x}
	tb.AddColumn("ooo LR", oooLR)
	tb.AddColumn("ooo none", oooNone)
	tb.AddColumn("max buffered LR", buf)

	// Second act: the peer telemetry plane measuring delay asymmetry
	// and silent loss from the sender's side (peerskew.go).
	peerText, peerTable := peerSkewSection(cfg)
	b.WriteString(peerText)
	return &Result{ID: "skew", Title: "Skew tolerance", Text: b.String(),
		Tables: []*stats.Table{tb, peerTable}}
}
