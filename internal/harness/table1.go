package harness

import (
	"fmt"
	"strings"

	"stripe/internal/baseline"
	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/packet"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: features of channel striping solutions (measured)",
		Run:   runTable1,
	})
}

// runTable1 regenerates Table 1 empirically: each scheme stripes the
// same bimodal workload over two equal channels with skewed arrivals
// and a burst of loss, and we measure what the table asserts
// qualitatively — FIFO behaviour (out-of-order delivery fraction with
// and without loss) and load sharing with variable-length packets
// (byte imbalance between the channels).
func runTable1(cfg Config) *Result {
	n := 20000
	if cfg.Quick {
		n = 4000
	}
	type outcome struct {
		name        string
		oooNoLoss   float64
		oooLoss     float64
		imbalance   int64
		jain        float64
		modifies    string
		deliveredOK bool
	}
	var rows []outcome

	// Every scheme runs over the same two lines: channel 1 lags 40 ticks
	// (persistent skew), and the loss pass drops 5%.
	base := func(imp channel.Impairments) rigConfig {
		return rigConfig{
			quanta: []int64{1500, 1500},
			queues: channel.NewGroup(2, imp).Queues,
			delay:  func(c int) int64 { return int64(c) * 40 },
		}
	}
	run := func(r *rig) *rig {
		sizes := trace.NewBimodal(200, 1000, 0.5, cfg.Seed+1)
		for i := 0; i < n; i++ {
			r.send(sizes.Next())
		}
		r.settle()
		return r
	}
	runScheme := func(name, modifies string, mk func(rc rigConfig) *rig) {
		o := outcome{name: name, modifies: modifies}
		// Pass 1: skew only, no loss — steady-state FIFO behaviour.
		r := run(mk(base(channel.Impairments{})))
		o.oooNoLoss = stats.AnalyzeOrder(r.ids).OutOfOrderFraction()
		bytes := r.sentBytes()
		o.imbalance = stats.MaxImbalance(bytes)
		o.jain = stats.JainIndex(bytes)
		o.deliveredOK = len(r.ids) == n

		// Pass 2: skew plus 5% loss — quasi-FIFO behaviour under errors.
		r = run(mk(base(channel.Impairments{Loss: 0.05, Seed: cfg.Seed + 2})))
		o.oooLoss = stats.AnalyzeOrder(r.ids).OutOfOrderFraction()
		rows = append(rows, o)
	}
	rr := func() sched.RoundBased { return must(sched.NewRR(2)) }

	// Row 1: round robin, no header, no resequencing.
	runScheme("RR, no header", "none", func(rc rigConfig) *rig {
		rc.mode, rc.sched = core.ModeNone, rr
		return newRig(rc)
	})
	// Row 2: round robin with sequence headers.
	runScheme("RR with header", "adds seq header", func(rc rigConfig) *rig {
		rc.mode, rc.addSeq, rc.sched = core.ModeSequence, true, rr
		return newRig(rc)
	})
	// Row 4 (paper): fair queuing with header.
	runScheme("SRR with header", "adds seq header", func(rc rigConfig) *rig {
		rc.mode, rc.addSeq = core.ModeSequence, true
		return newRig(rc)
	})
	// Row 5 (paper): fair queuing, no header — the paper's scheme.
	runScheme("SRR, no header (strIPe)", "none", func(rc rigConfig) *rig {
		rc.mode, rc.markers = core.ModeLogical, core.MarkerPolicy{Every: 4, Position: 0}
		return newRig(rc)
	})
	// Extra baselines surveyed in Section 2.1.
	runScheme("Random Selection", "none", func(rc rigConfig) *rig {
		rc.mode, rc.selector = core.ModeNone, must(baseline.NewRandomSelection(2, cfg.Seed+3))
		return newRig(rc)
	})
	runScheme("Shortest Queue First", "none", func(rc rigConfig) *rig {
		var r *rig
		rc.mode = core.ModeNone
		rc.selector = must(baseline.NewShortestQueue(2, func(c int) int {
			s := r.queues[c].Stats()
			return int(s.SentBytes) - int(s.DeliveredBytes)
		}))
		r = newRig(rc)
		return r
	})

	// Row 3 (paper): BONDING-style inverse mux, measured separately
	// because it reformats the stream into frames.
	bondOOO, bondImb, bondJain := runBonding(n/4, cfg)

	var b strings.Builder
	fmt.Fprintln(&b, "# Table 1 (measured): 2 equal channels, bimodal 200/1000B packets,")
	fmt.Fprintln(&b, "# channel-1 skew, loss pass at 5%. ooo = out-of-order delivery fraction.")
	fmt.Fprintln(&b, row("scheme", "ooo (no loss)", "ooo (5% loss)", "byte imbalance", "Jain", "pkt modification"))
	for _, o := range rows {
		fmt.Fprintln(&b, row(o.name,
			fmt.Sprintf("%.4f", o.oooNoLoss),
			fmt.Sprintf("%.4f", o.oooLoss),
			fmt.Sprintf("%d", o.imbalance),
			fmt.Sprintf("%.4f", o.jain),
			o.modifies))
	}
	fmt.Fprintln(&b, row("BONDING (frame striping)",
		fmt.Sprintf("%.4f", bondOOO), "n/a (reliable)",
		fmt.Sprintf("%d", bondImb), fmt.Sprintf("%.4f", bondJain), "reframes all data"))

	return &Result{ID: "table1", Title: "Table 1", Text: b.String()}
}

// runBonding measures the BONDING baseline: guaranteed FIFO and
// near-perfect byte balance, at the cost of reformatting everything.
func runBonding(n int, cfg Config) (ooo float64, imbalance int64, jain float64) {
	g := channel.NewGroup(2, channel.Impairments{})
	bs, err := baseline.NewBondingSender(g.Senders(), 256)
	if err != nil {
		panic(err)
	}
	br, err := baseline.NewBondingReceiver(2, 256)
	if err != nil {
		panic(err)
	}
	sizes := trace.NewBimodal(200, 1000, 0.5, cfg.Seed+4)
	var want [][]byte
	for i := 0; i < n; i++ {
		pl := make([]byte, sizes.Next())
		pl[0] = byte(i)
		pl[1] = byte(i >> 8)
		pl[2] = byte(i >> 16)
		want = append(want, pl)
		if err := bs.Send(packet.NewData(pl)); err != nil {
			panic(err)
		}
	}
	if err := bs.Flush(); err != nil {
		panic(err)
	}
	// Skewed delivery: channel 1 drained entirely after channel 0.
	var ids []uint64
	for _, c := range []int{1, 0} {
		for {
			p, ok := g.Queues[c].Recv()
			if !ok {
				break
			}
			br.Arrive(c, p)
			for {
				out, ok := br.Next()
				if !ok {
					break
				}
				id := uint64(out.Payload[0]) | uint64(out.Payload[1])<<8 | uint64(out.Payload[2])<<16
				ids = append(ids, id)
			}
		}
	}
	r := stats.AnalyzeOrder(ids)
	bytes := []int64{g.Queues[0].Stats().SentBytes, g.Queues[1].Stats().SentBytes}
	return r.OutOfOrderFraction(), stats.MaxImbalance(bytes), stats.JainIndex(bytes)
}
