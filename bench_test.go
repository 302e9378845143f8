package stripe_test

// One benchmark per table/figure of the paper's evaluation, as required
// by DESIGN.md's experiment index. Each runs the corresponding harness
// experiment at reduced (Quick) scale; `go run ./cmd/stripebench`
// regenerates the full-scale numbers recorded in EXPERIMENTS.md.
//
// The micro-benchmarks at the bottom quantify the paper's "only a few
// extra instructions" claim for SRR and the end-to-end software cost of
// the protocol. They are for a developer's `go test -bench`; the
// committed performance record comes from `go run ./bench`.
//
// This file lives in the external test package: the harness package
// imports stripe (its flap experiment drives the public session API),
// so an in-package test importing harness would be an import cycle.

import (
	"testing"

	"stripe"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/harness"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
	"stripe/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if r := e.Run(harness.Config{Quick: true, Seed: int64(i + 1)}); r == nil {
			b.Fatal("experiment returned nil")
		}
	}
}

// BenchmarkTable1 regenerates the Table 1 feature matrix (measured).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure15 regenerates the Figure 15 throughput sweep.
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkSRRvsGRR regenerates the Section 6.2 adversarial-workload
// comparison (paper: 11.2 vs 6.8 Mb/s).
func BenchmarkSRRvsGRR(b *testing.B) { benchExperiment(b, "srrgrr") }

// BenchmarkLossRecovery regenerates the Section 6.3 loss sweep (marker
// recovery up to 80% loss).
func BenchmarkLossRecovery(b *testing.B) { benchExperiment(b, "loss") }

// BenchmarkMarkerFrequency regenerates the Section 6.3 marker-frequency
// study.
func BenchmarkMarkerFrequency(b *testing.B) { benchExperiment(b, "markerfreq") }

// BenchmarkMarkerPosition regenerates the Section 6.3 marker-position
// study.
func BenchmarkMarkerPosition(b *testing.B) { benchExperiment(b, "markerpos") }

// BenchmarkCreditFlowControl regenerates the Section 6.3 credit-based
// flow-control experiment.
func BenchmarkCreditFlowControl(b *testing.B) { benchExperiment(b, "credit") }

// BenchmarkVideoQuasiFIFO regenerates the Section 6.3 NV video study.
func BenchmarkVideoQuasiFIFO(b *testing.B) { benchExperiment(b, "video") }

// BenchmarkAblationQuantum regenerates the quantum-size ablation (A1).
func BenchmarkAblationQuantum(b *testing.B) { benchExperiment(b, "quantum") }

// BenchmarkChannelScaling regenerates the channel-count ablation (A3).
func BenchmarkChannelScaling(b *testing.B) { benchExperiment(b, "scaling") }

// BenchmarkAblationSkew regenerates the skew-tolerance ablation (A4).
func BenchmarkAblationSkew(b *testing.B) { benchExperiment(b, "skew") }

// BenchmarkAblationAggregate regenerates the link-count scaling
// ablation (A5, the "nearly linear speedup" claim).
func BenchmarkAblationAggregate(b *testing.B) { benchExperiment(b, "aggregate") }

// BenchmarkSchedulerDecision isolates one Select/Account decision for
// each scheduler — the cost the paper argues is "a few more
// instructions than the normal amount of processing".
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"SRR", func() sched.Scheduler { return sched.MustSRR(sched.UniformQuanta(4, 3000)) }},
		{"RR", func() sched.Scheduler { s, _ := sched.NewRR(4); return s }},
		{"GRR", func() sched.Scheduler { s, _ := sched.NewGRR([]int64{3, 1, 2, 2}); return s }},
		{"RFQ", func() sched.Scheduler { s, _ := sched.NewRFQ([]int64{1, 1, 1, 1}, 7); return s }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Select()
				s.Account(1000)
			}
		})
	}
}

// BenchmarkStripeReseqPipeline measures the full software path: stripe
// one packet, move it across an in-memory channel, resequence and
// deliver it.
func BenchmarkStripeReseqPipeline(b *testing.B) {
	for _, nch := range []int{2, 8, 32} {
		b.Run(map[int]string{2: "2ch", 8: "8ch", 32: "32ch"}[nch], func(b *testing.B) {
			quanta := sched.UniformQuanta(nch, 1500)
			g := channel.NewGroup(nch, channel.Impairments{})
			st, err := core.NewStriper(core.StriperConfig{
				Sched:    sched.MustSRR(quanta),
				Channels: g.Senders(),
				Markers:  core.MarkerPolicy{Every: 4, Position: 0},
			})
			if err != nil {
				b.Fatal(err)
			}
			rs, err := core.NewResequencer(core.ResequencerConfig{
				Sched: sched.MustSRR(quanta),
				Mode:  core.ModeLogical,
			})
			if err != nil {
				b.Fatal(err)
			}
			sizes := trace.NewBimodal(200, 1000, 0.5, 1)
			payload := make([]byte, 1500)
			b.ReportAllocs()
			b.ResetTimer()
			delivered := 0
			for i := 0; i < b.N; i++ {
				p := packet.NewData(payload[:sizes.Next()])
				if err := st.Send(p); err != nil {
					b.Fatal(err)
				}
				for c, q := range g.Queues {
					if pkt, ok := q.Recv(); ok {
						rs.Arrive(c, pkt)
					}
				}
				for {
					if _, ok := rs.Next(); !ok {
						break
					}
					delivered++
				}
			}
			b.StopTimer()
			if delivered == 0 && b.N > nch {
				b.Fatal("pipeline delivered nothing")
			}
			b.SetBytes(int64(750)) // mean payload, for MB/s reporting
		})
	}
}

// BenchmarkSenderPublicAPI measures the concurrency-safe public path.
func BenchmarkSenderPublicAPI(b *testing.B) {
	g := channel.NewGroup(4, channel.Impairments{})
	tx, err := stripe.NewSender(g.Senders(), stripe.Config{Quanta: stripe.UniformQuanta(4, 1500)})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(stripe.Data(payload)); err != nil {
			b.Fatal(err)
		}
		// Keep the queues drained so memory stays flat.
		for _, q := range g.Queues {
			q.Recv()
		}
	}
}

// BenchmarkInstrumentationOverhead quantifies the cost of the
// observability layer on the striper hot path: the same stripe loop
// with no collector, with a collector counting, and with a collector
// that also fans events out to a ring sink. The nil case is the
// baseline every uninstrumented user pays (one pointer test); the
// acceptance bar for the layer is <5% overhead with a collector
// attached.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	for _, name := range []string{"nil", "collector", "collector+sink", "collector+tracer", "collector+tracer+windows"} {
		b.Run(name, func(b *testing.B) {
			const nch = 4
			quanta := sched.UniformQuanta(nch, 1500)
			g := channel.NewGroup(nch, channel.Impairments{})
			cfg := core.StriperConfig{
				Sched:    sched.MustSRR(quanta),
				Channels: g.Senders(),
				Markers:  core.MarkerPolicy{Every: 4, Position: 0},
			}
			switch name {
			case "collector":
				cfg.Obs = obs.NewCollector(nch)
			case "collector+sink":
				col := obs.NewCollector(nch)
				col.AddSink(obs.NewRingSink(64))
				cfg.Obs = col
			case "collector+tracer":
				// Default 1-in-16 lifecycle sampling: the production
				// configuration the <5% overhead budget applies to.
				col := obs.NewCollector(nch)
				col.SetTracer(obs.NewTracer(obs.TracerConfig{}))
				cfg.Obs = col
			case "collector+tracer+windows":
				// The full pipeline with the windowed rollup attached:
				// folds are amortized over the flush tick (the hot path
				// pays one atomic deadline check), so this row must stay
				// within 7% of collector-only.
				col := obs.NewCollector(nch)
				col.SetTracer(obs.NewTracer(obs.TracerConfig{}))
				obs.NewWindows(col, obs.WindowConfig{})
				cfg.Obs = col
			}
			st, err := core.NewStriper(cfg)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 1000)
			b.ReportAllocs()
			b.SetBytes(1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Send(packet.NewData(payload)); err != nil {
					b.Fatal(err)
				}
				for _, q := range g.Queues {
					q.Recv()
				}
			}
		})
	}
}
